package parmcts_test

// End-to-end integration: the full life of a DNN-MCTS deployment — design
// configuration, adaptive engine construction, self-play training
// (Algorithm 1), candidate gating, and model serialisation — exercised in
// one flow across module boundaries.

import (
	"bytes"
	"testing"

	"github.com/parmcts/parmcts/internal/adaptive"
	"github.com/parmcts/parmcts/internal/arena"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/selfplay"
	"github.com/parmcts/parmcts/internal/train"
)

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	const board = 7
	g := gomoku.NewSized(board)
	c, h, w := g.EncodedShape()
	net := nn.MustNew(nn.TinyConfig(c, h, w, g.NumActions()), rng.New(1))
	baseline := net.Clone() // frozen pre-training snapshot for the gate

	// 1. Design configuration picks a scheme for this host and budget.
	search := mcts.DefaultConfig()
	search.Playouts = 32
	search.DirichletAlpha = 0.3
	search.NoiseFrac = 0.25
	cache := evaluate.NewCached(evaluate.NewNN(net), 1<<14)
	eng, err := adaptive.Configure(g, adaptive.Options{
		Search:          search,
		Workers:         2,
		Platform:        adaptive.PlatformCPU,
		Evaluator:       cache,
		ProfilePlayouts: 100,
		DNNProfileIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// 2. Train through the Algorithm 1 loop.
	replay := train.NewReplay(50000)
	driver := selfplay.NewDriver(g, []mcts.Engine{eng}, replay, train.GomokuAugmenter{Size: board, Planes: c}, selfplay.Config{
		TempMoves: 4,
		Seed:      2,
	})
	stats := selfplay.NewTrainer(driver, net, selfplay.TrainerConfig{
		Rounds:        2,
		SGDIterations: 3,
		BatchSize:     32,
		LR:            0.02,
		Momentum:      0.9,
		WeightDecay:   1e-4,
		Seed:          2,
	}).Run(func(selfplay.RoundStats) {
		cache.Reset() // the SGD update invalidated the cached evaluations
	})
	if len(stats) != 2 {
		t.Fatalf("episodes = %d", len(stats))
	}
	if replay.Len() == 0 {
		t.Fatal("no training data generated")
	}

	// 3. Gate the trained candidate against the frozen baseline. Two
	// episodes prove nothing about strength; we assert only that the gate
	// machinery runs and accounts correctly.
	gateCfg := arena.DefaultGateConfig()
	gateCfg.Games = 2
	gateCfg.Playouts = 16
	_, res := arena.GateCandidate(g, net, baseline, gateCfg)
	if res.Games != 2 || res.WinsA+res.WinsB+res.Draws != 2 {
		t.Fatalf("gate accounting wrong: %+v", res)
	}

	// 4. Serialise and reload; the reloaded model must reproduce outputs.
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, net.InputLen())
	st := g.NewInitial()
	st.Play(board * board / 2)
	st.Encode(in)
	p1, p2 := make([]float32, net.Cfg.NumActions), make([]float32, net.Cfg.NumActions)
	v1 := evaluate.NewNN(net).Evaluate(in, p1)
	v2 := evaluate.NewNN(loaded).Evaluate(in, p2)
	if v1 != v2 {
		t.Fatal("reloaded model value differs")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("reloaded model policy differs")
		}
	}
}

func TestAdaptiveEngineAcrossGames(t *testing.T) {
	// The "arbitrary DNN-MCTS algorithm" claim: the same adaptive API must
	// configure and search for games with very different fanout/depth.
	for _, boardSize := range []int{5, 9} {
		g := gomoku.NewSized(boardSize)
		eng, err := adaptive.Configure(g, adaptive.Options{
			Search:          func() mcts.Config { c := mcts.DefaultConfig(); c.Playouts = 40; return c }(),
			Workers:         2,
			Platform:        adaptive.PlatformCPU,
			Evaluator:       &evaluate.Random{},
			ProfilePlayouts: 60,
			DNNProfileIters: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := g.NewInitial()
		dist := make([]float32, g.NumActions())
		s := eng.Search(st, dist)
		if s.Playouts != 40 {
			t.Fatalf("board %d: playouts = %d", boardSize, s.Playouts)
		}
		eng.Close()
	}
}
