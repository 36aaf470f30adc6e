package mcts_test // external: internal/train's self-play helpers import mcts

import (
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/train"
)

// BenchmarkScenarioSearch measures one warm-engine self-play move cycle
// (search + advance) per scenario, the cross-game table in EXPERIMENTS.md:
// the shared-tree engine at 4 workers, every registered scenario at its -game
// default shape (gomoku at 9x9), fanouts 7 to 121. In the table-on leg,
// transposition hits replace part of the evaluation demand.
func BenchmarkScenarioSearch(b *testing.B) {
	for _, leg := range []struct {
		name string
		size int
	}{{"table-off", 0}, {"table-on", 1 << 16}} {
		for _, spec := range []string{"tictactoe", "connect4", "gomoku:9", "othello", "hex:11"} {
			b.Run(leg.name+"/"+spec, func(b *testing.B) {
				g := games.MustNew(spec)
				cfg := mcts.DefaultConfig()
				cfg.Playouts = 200
				cfg.ReuseTree = true
				cfg.Seed = 9
				cfg.TransposeSize = leg.size
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
