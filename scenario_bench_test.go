package parmcts_test

import (
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/train"
)

// scenarioSpecs is the cross-game benchmark matrix behind the scenario
// table in EXPERIMENTS.md: every registered scenario at its -game flag
// default shape (gomoku scaled to the 9x9 training size).
var scenarioSpecs = []string{"tictactoe", "connect4", "gomoku:9", "othello", "hex:11"}

// BenchmarkScenarioSearch measures one warm-engine self-play move cycle
// (search + advance) per scenario with the shared-tree engine at 4 workers
// — the cross-game throughput table of the scenario-expansion PR. The
// fanout spread (7 for connect4, 226 for gomoku:15-shape, 65 with a pass
// action for othello) is exactly the range the performance model must hold
// across.
func BenchmarkScenarioSearch(b *testing.B) {
	for _, spec := range scenarioSpecs {
		b.Run(spec, func(b *testing.B) {
			g, err := game.NewFromSpec(spec)
			if err != nil {
				b.Fatal(err)
			}
			cfg := mcts.DefaultConfig()
			cfg.Playouts = 200
			cfg.ReuseTree = true
			cfg.Seed = 9
			e := mcts.NewShared(cfg, 4, &evaluate.Random{})
			defer e.Close()
			dist := make([]float32, g.NumActions())
			st := g.NewInitial()
			playouts := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st.Terminal() {
					b.StopTimer()
					e.Advance(mcts.DiscardTree)
					st = g.NewInitial()
					b.StartTimer()
				}
				s := e.Search(st, dist)
				playouts += s.Playouts
				a := train.SampleAction(nil, dist, 0)
				if a < 0 {
					a = st.LegalMoves(nil)[0]
				}
				st.Play(a)
				if !st.Terminal() {
					e.Advance(a)
				}
			}
			b.ReportMetric(float64(playouts)/float64(b.N), "playouts/move")
		})
	}
}

// BenchmarkScenarioEpisode runs one full self-play episode per iteration —
// the end-to-end per-game cost the fleet driver pays, pass chains and all.
func BenchmarkScenarioEpisode(b *testing.B) {
	for _, spec := range []string{"othello:6", "hex:7"} {
		b.Run(spec, func(b *testing.B) {
			g := games.MustNew(spec)
			cfg := mcts.DefaultConfig()
			cfg.Playouts = 64
			cfg.ReuseTree = true
			e := mcts.NewSerial(cfg, &evaluate.Random{})
			defer e.Close()
			moves := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := train.SelfPlayEpisode(g, e, train.EpisodeOptions{})
				moves += res.Moves
			}
			b.ReportMetric(float64(moves)/float64(b.N), "moves/episode")
		})
	}
}

// BenchmarkScenarioSearchTransposed is the same warm move cycle with a
// transposition table: the DAG probe replaces part of the evaluation demand
// with table hits, so evals/move drops below playouts/move by the game's
// transposition rate (EXPERIMENTS.md has the off/on deltas).
func BenchmarkScenarioSearchTransposed(b *testing.B) {
	for _, spec := range scenarioSpecs {
		b.Run(spec, func(b *testing.B) {
			g, err := game.NewFromSpec(spec)
			if err != nil {
				b.Fatal(err)
			}
			cfg := mcts.DefaultConfig()
			cfg.Playouts = 200
			cfg.ReuseTree = true
			cfg.Seed = 9
			cfg.TransposeSize = 1 << 16
			e := mcts.NewShared(cfg, 4, &evaluate.Random{})
			defer e.Close()
			dist := make([]float32, g.NumActions())
			st := g.NewInitial()
			playouts, evals, hits := 0, 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st.Terminal() {
					b.StopTimer()
					e.Advance(mcts.DiscardTree)
					st = g.NewInitial()
					b.StartTimer()
				}
				s := e.Search(st, dist)
				playouts += s.Playouts
				evals += s.Evaluations
				hits += s.TransHits
				a := train.SampleAction(nil, dist, 0)
				if a < 0 {
					a = st.LegalMoves(nil)[0]
				}
				st.Play(a)
				if !st.Terminal() {
					e.Advance(a)
				}
			}
			b.ReportMetric(float64(playouts)/float64(b.N), "playouts/move")
			b.ReportMetric(float64(evals)/float64(b.N), "evals/move")
			b.ReportMetric(float64(hits)/float64(b.N), "hits/move")
		})
	}
}
