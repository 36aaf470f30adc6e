package selfplay

import (
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/train"
)

// testLink is the "model" accelerator backend on a small latency profile.
func testLink() *accel.Link {
	link, err := accel.NewBackend("model", accel.BackendSpec{Cost: accel.CostModel{
		LaunchLatency:   5 * time.Microsecond,
		BytesPerSample:  36,
		LinkBytesPerSec: 16e9,
		ComputeBase:     10 * time.Microsecond,
	}})
	if err != nil {
		panic(err) // "model" is registered by the accel package itself
	}
	return link
}

// testFleet builds G local-tree engines sharing one quorum-launched
// inference service over the latency-model backend.
func testFleet(g, n, playouts int) ([]mcts.Engine, *evaluate.Server, func()) {
	srv := evaluate.NewServer(testLink(), evaluate.ServerConfig{
		Batch:          g * n,
		MaxOutstanding: 2 * g * n,
	})
	engines := make([]mcts.Engine, g)
	closers := make([]func(), 0, g+1)
	for i := 0; i < g; i++ {
		cfg := mcts.DefaultConfig()
		cfg.Playouts = playouts
		cfg.Seed = uint64(i + 1)
		cl := srv.NewSyncClient()
		engines[i] = mcts.NewLocal(cfg, cl, n)
		closers = append(closers, cl.Close)
	}
	closers = append(closers, srv.Close)
	return engines, srv, func() {
		for _, e := range engines {
			e.Close()
		}
		for _, c := range closers {
			c()
		}
	}
}

func TestDriverPlaysGamesConcurrently(t *testing.T) {
	const g, n = 4, 4
	engines, srv, closeAll := testFleet(g, n, 32)
	defer closeAll()

	game := tictactoe.New()
	replay := train.NewReplay(1000)
	d := NewDriver(game, engines, replay, nil, Config{TempMoves: 2, Seed: 11})
	round := d.PlayRound()

	if len(round.Episodes) != g {
		t.Fatalf("round has %d episodes, want %d", len(round.Episodes), g)
	}
	if round.Moves < g || round.Samples != round.Moves {
		t.Fatalf("moves=%d samples=%d: every move yields one sample", round.Moves, round.Samples)
	}
	if replay.Len() != round.Samples {
		t.Fatalf("replay holds %d samples, round produced %d", replay.Len(), round.Samples)
	}
	// Every game ran its full playout budget per move, and Stats.Add kept
	// the aggregate consistent.
	if round.Search.Playouts != round.Moves*32 {
		t.Fatalf("aggregated playouts %d, want %d", round.Search.Playouts, round.Moves*32)
	}
	// All tenants' evaluations went through the one shared service.
	if st := srv.Stats(); st.Requests == 0 || st.Batches == 0 {
		t.Fatalf("shared server saw no traffic: %+v", st)
	}
	// Games with distinct seeds should not be identical replicas: at least
	// two episodes must differ in trajectory.
	distinct := false
	for i := 1; i < g; i++ {
		if round.Episodes[i].Moves != round.Episodes[0].Moves ||
			round.Episodes[i].Winner != round.Episodes[0].Winner {
			distinct = true
			break
		}
	}
	if !distinct {
		// Equal lengths and winners can legitimately coincide; compare the
		// first-move samples before declaring the games identical.
		s0 := round.Episodes[0].Samples[0].Policy
		for i := 1; i < g && !distinct; i++ {
			si := round.Episodes[i].Samples[0].Policy
			for j := range s0 {
				if s0[j] != si[j] {
					distinct = true
					break
				}
			}
		}
	}
	if !distinct {
		t.Fatal("all concurrent games produced identical trajectories — seeds not split")
	}
}

func TestDriverRoundsAreReproducible(t *testing.T) {
	game := tictactoe.New()
	run := func() Round {
		engines, _, closeAll := testFleet(2, 2, 16)
		defer closeAll()
		d := NewDriver(game, engines, train.NewReplay(500), nil, Config{TempMoves: 1, Seed: 42})
		return d.PlayRound()
	}
	a, b := run(), run()
	if len(a.Episodes) != len(b.Episodes) {
		t.Fatal("episode counts differ")
	}
	for i := range a.Episodes {
		if a.Episodes[i].Moves != b.Episodes[i].Moves || a.Episodes[i].Winner != b.Episodes[i].Winner {
			t.Fatalf("game %d not reproducible: (%d,%v) vs (%d,%v)", i,
				a.Episodes[i].Moves, a.Episodes[i].Winner, b.Episodes[i].Moves, b.Episodes[i].Winner)
		}
	}
}

func TestTrainerRunsRounds(t *testing.T) {
	game := tictactoe.New()
	engines, _, closeAll := testFleet(3, 2, 16)
	defer closeAll()

	c, h, w := game.EncodedShape()
	net := nn.MustNew(nn.TinyConfig(c, h, w, game.NumActions()), rng.New(3))
	replay := train.NewReplay(2000)
	d := NewDriver(game, engines, replay, nil, Config{TempMoves: 2, Seed: 5})
	tr := NewTrainer(d, net, TrainerConfig{
		Rounds:        2,
		SGDIterations: 2,
		BatchSize:     16,
		LR:            0.01,
		Seed:          5,
	})
	var seen []RoundStats
	all := tr.Run(func(s RoundStats) { seen = append(seen, s) })
	if len(all) != 2 || len(seen) != 2 {
		t.Fatalf("ran %d rounds (callback saw %d), want 2", len(all), len(seen))
	}
	for i, s := range all {
		if s.Games != 3 {
			t.Fatalf("round %d: games=%d, want 3", i, s.Games)
		}
		if s.Samples < 3 {
			t.Fatalf("round %d produced %d samples", i, s.Samples)
		}
		if s.Loss.TotalLoss() <= 0 {
			t.Fatalf("round %d: no SGD update recorded", i)
		}
		if s.Throughput() <= 0 {
			t.Fatalf("round %d: throughput %v", i, s.Throughput())
		}
	}
	if replay.Len() != all[0].Samples+all[1].Samples {
		t.Fatalf("replay %d != %d+%d", replay.Len(), all[0].Samples, all[1].Samples)
	}
}

func TestDriverPanics(t *testing.T) {
	game := tictactoe.New()
	for name, f := range map[string]func(){
		"no engines": func() { NewDriver(game, nil, train.NewReplay(10), nil, Config{}) },
		"no replay": func() {
			engines, _, closeAll := testFleet(1, 1, 4)
			defer closeAll()
			NewDriver(game, engines, nil, nil, Config{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestDriverFleetReusesSubtrees runs a round of concurrent games whose
// engines keep persistent sessions: every game's per-move searches after
// move 1 must be partially served from the retained subtree, and the
// budget arithmetic (fresh playouts + reused visits = per-move target)
// must hold in the round aggregate.
func TestDriverFleetReusesSubtrees(t *testing.T) {
	const g, n, playouts = 3, 2, 48
	srv := evaluate.NewServer(testLink(), evaluate.ServerConfig{
		Batch:          g * n,
		MaxOutstanding: 2 * g * n,
	})
	defer srv.Close()
	engines := make([]mcts.Engine, g)
	for i := 0; i < g; i++ {
		cfg := mcts.DefaultConfig()
		cfg.Playouts = playouts
		cfg.Seed = uint64(i + 1)
		cfg.ReuseTree = true
		cl := srv.NewSyncClient()
		defer cl.Close()
		engines[i] = mcts.NewLocal(cfg, cl, n)
		defer engines[i].Close()
	}

	game := tictactoe.New()
	d := NewDriver(game, engines, train.NewReplay(1000), nil, Config{TempMoves: 2, Seed: 9})
	round := d.PlayRound()

	if round.Search.ReusedVisits == 0 {
		t.Fatal("reuse-enabled fleet reported no retained visits")
	}
	if round.Search.ReuseFraction() <= 0 {
		t.Fatalf("reuse fraction = %v", round.Search.ReuseFraction())
	}
	// Retained visits substitute for fresh playouts one-for-one.
	if got := round.Search.Playouts + round.Search.ReusedVisits; got != round.Moves*playouts {
		t.Fatalf("playouts %d + reused %d = %d, want %d",
			round.Search.Playouts, round.Search.ReusedVisits, got, round.Moves*playouts)
	}
}

func TestRoundStatsThroughputZeroDivision(t *testing.T) {
	var s RoundStats
	if s.Throughput() != 0 {
		t.Fatal("zero-time throughput should be 0")
	}
}

// TestDriverOnEpisodeHookOrderAndIngest pins the streaming seam: the
// OnEpisode hook fires exactly once per tenant, in tenant order, on the
// driver goroutine at the ingest barrier (so a learner sees the same
// deterministic episode sequence the replay ring does), and live episodes
// enter the ring through the configured augmenter.
func TestDriverOnEpisodeHookOrderAndIngest(t *testing.T) {
	const g, n = 4, 2
	engines, _, closeAll := testFleet(g, n, 16)
	defer closeAll()

	replay := train.NewReplay(10000)
	var gotTenants []int
	var gotSamples int
	d := NewDriver(tictactoe.New(), engines, replay, nil, Config{
		TempMoves: 2,
		Seed:      21,
		OnEpisode: func(tenant int, ep *train.EpisodeResult) {
			// Appending without a lock is the point: the hook contract is
			// single-goroutine, and the -race runs of this test enforce it.
			gotTenants = append(gotTenants, tenant)
			gotSamples += len(ep.Samples)
			if ep.Moves != len(ep.Samples) {
				t.Errorf("tenant %d: hook saw %d moves but %d samples", tenant, ep.Moves, len(ep.Samples))
			}
		},
	})
	round := d.PlayRound()

	if len(gotTenants) != g {
		t.Fatalf("hook fired %d times, want once per tenant (%d)", len(gotTenants), g)
	}
	for i, tn := range gotTenants {
		if tn != i {
			t.Fatalf("hook order %v, want tenants in order", gotTenants)
		}
	}
	if gotSamples != round.Samples {
		t.Fatalf("hook saw %d samples, round ingested %d", gotSamples, round.Samples)
	}
	if replay.Len() != round.Samples {
		t.Fatalf("replay holds %d, want %d", replay.Len(), round.Samples)
	}

	// With an augmenter configured, live episodes multiply on the way in.
	replay2 := train.NewReplay(10000)
	d2 := NewDriver(tictactoe.New(), engines, replay2, doubler{}, Config{Seed: 22})
	if round2 := d2.PlayRound(); replay2.Len() != 2*round2.Samples {
		t.Fatalf("replay has %d samples for %d raw ones, want them doubled", replay2.Len(), round2.Samples)
	}
}

// doubler is a trivial augmenter returning each sample twice.
type doubler struct{}

func (doubler) Augment(s nn.Sample) []nn.Sample { return []nn.Sample{s, s} }
