package arena

import (
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// gateFixture builds a live server (incumbent v1) and a ServerGate over it;
// onRetire is the server's OnRetire.
func gateFixture(t *testing.T, threshold float64, onRetire func(int64)) (*evaluate.Server, *ServerGate, *nn.Network, func()) {
	t.Helper()
	g := tictactoe.New()
	c, h, w := g.EncodedShape()
	incumbent := nn.MustNew(nn.TinyConfig(c, h, w, g.NumActions()), rng.New(1))
	mkBackend := func(n *nn.Network, v int64) evaluate.Backend {
		return &evaluate.EvaluatorBackend{Eval: evaluate.NewNN(n), Workers: 2}
	}
	srv := evaluate.NewServer(mkBackend(incumbent, 1), evaluate.ServerConfig{Batch: 1, LaunchWorkers: 2, OnRetire: onRetire})
	sg := &ServerGate{
		Game:      g,
		Srv:       srv,
		MkBackend: mkBackend,
		Cfg: GateConfig{
			Games:        2,
			WinThreshold: threshold,
			Playouts:     8,
			Temperature:  0.3,
			Seed:         3,
		},
	}
	return srv, sg, incumbent, srv.Close
}

// TestServerGateRejectionCleansUp: a rejected candidate's version must be
// fully gone afterwards — retired from the server and reported to OnRetire
// so version-tagged caches can evict, leaving nothing a later candidate
// (which always gets a fresh version number) could collide with.
func TestServerGateRejectionCleansUp(t *testing.T) {
	var rejected []int64
	srv, sg, incumbent, closeSrv := gateFixture(t, 1.1, func(v int64) { rejected = append(rejected, v) }) // unreachable: always reject
	defer closeSrv()

	candidate := incumbent.Clone()
	res := sg.Gate(candidate, 2, incumbent, 1)
	if res.Promote {
		t.Fatal("score above an unreachable threshold")
	}
	if res.Games != 2 || res.WinsCandidate+res.WinsIncumbent+res.Draws != 2 {
		t.Fatalf("match evidence inconsistent: %+v", res)
	}
	if len(rejected) != 1 || rejected[0] != 2 {
		t.Fatalf("OnRetire calls = %v, want [2]", rejected)
	}
	if _, ok := srv.Pins()[1]; !ok || len(srv.Pins()) != 1 {
		t.Fatalf("registry after rejection = %v, want only v1", srv.Pins())
	}
	if srv.Version() != 1 {
		t.Fatalf("rejection changed the current version to %d", srv.Version())
	}
}

// TestServerGatePromotionLeavesRegistration: an accepted candidate's
// backend stays registered and held (the Promoter makes it current) and
// OnRetire does not fire.
func TestServerGatePromotionLeavesRegistration(t *testing.T) {
	var retired []int64
	srv, sg, incumbent, closeSrv := gateFixture(t, 0, func(v int64) { retired = append(retired, v) }) // any score promotes
	defer closeSrv()

	res := sg.Gate(incumbent.Clone(), 2, incumbent, 1)
	if !res.Promote {
		t.Fatal("score below a zero threshold")
	}
	if vs := srv.Pins(); len(vs) != 2 {
		t.Fatalf("registry after promotion = %v, want candidate still registered", vs)
	}
	if srv.Version() != 1 {
		t.Fatalf("gate itself changed the current version to %d (the Promoter's job)", srv.Version())
	}
	if len(retired) != 0 {
		t.Fatalf("OnRetire%v fired on a promotion", retired)
	}
	srv.Promote(2) // the gate's hold becomes the current-version hold; v1 retires
	if vs := srv.Pins(); len(vs) != 1 || srv.Version() != 2 || len(retired) != 1 || retired[0] != 1 {
		t.Fatalf("after Promote: registry %v, OnRetire%v, want only v2 and [1]", vs, retired)
	}
}
