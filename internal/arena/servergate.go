package arena

import (
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/train"
)

// ServerGate is a promotion gate that plays the candidate-vs-incumbent
// match THROUGH the live multi-tenant inference service, while the
// self-play fleet keeps generating on it: the candidate's backend is
// registered under its (not yet current) version, each side's engine is a
// sync tenant pinned to its own version, and the match traffic multiplexes
// with fleet traffic in the same batch stream. Two versions are live
// simultaneously — one per tenant group — which is exactly the state a
// promotion swap later makes permanent.
//
// The gate holds the candidate's registration for the match (evaluate.Server,
// "Model-version lifecycle"). On rejection it releases it, and with the two
// match tenants closed nothing else holds the version: the server retires it
// and the binary's OnRetire drops whatever it tagged with it. On promotion the
// hold is left for the Promoter to turn into the current version with
// Server.Promote (or to Release).
type ServerGate struct {
	// Game is the gating workload.
	Game game.Game
	// Srv is the shared inference service (the fleet's server).
	Srv *evaluate.Server
	// MkBackend builds the backend serving a model version during (and, if
	// promoted, after) the match — e.g. an EvaluatorBackend over a
	// version-scoped cache view of the candidate network.
	MkBackend func(net *nn.Network, version int64) evaluate.Backend
	// Cfg carries the match size, win threshold and search budget.
	Cfg GateConfig
}

// Gate implements train.Gate. The candidate's backend is registered under
// version cv for the duration of the match against the registered version
// iv. On promotion the caller inherits the hold (Promote or Release); on
// rejection it is released here.
func (sg *ServerGate) Gate(candidate *nn.Network, cv int64, incumbent *nn.Network, iv int64) train.GateResult {
	if sg.Cfg.Games < 1 || sg.Cfg.Playouts < 1 {
		panic("arena: gate needs Games >= 1 and Playouts >= 1")
	}
	sg.Srv.RegisterBackend(sg.MkBackend(candidate, cv), cv)

	mk := func(version int64, seed uint64) (mcts.Engine, *evaluate.Client) {
		cl := sg.Srv.NewSyncClient()
		cl.Pin(version)
		c := mcts.DefaultConfig()
		c.Playouts = sg.Cfg.Playouts
		c.Seed = seed
		return mcts.NewSerial(c, cl), cl
	}
	a, clA := mk(cv, sg.Cfg.Seed)
	b, clB := mk(iv, sg.Cfg.Seed+1)
	res := Play(sg.Game, a, b, MatchConfig{
		Games:       sg.Cfg.Games,
		Temperature: sg.Cfg.Temperature,
		TempMoves:   sg.Cfg.TempMoves,
		Seed:        sg.Cfg.Seed,
	})
	a.Close()
	b.Close()
	clA.Close()
	clB.Close()

	promote := res.Score() >= sg.Cfg.WinThreshold
	if !promote {
		sg.Srv.Release(cv)
	}
	return train.GateResult{
		Promote:       promote,
		Score:         res.Score(),
		Games:         res.Games,
		WinsCandidate: res.WinsA,
		WinsIncumbent: res.WinsB,
		Draws:         res.Draws,
		Elapsed:       res.Duration,
	}
}
