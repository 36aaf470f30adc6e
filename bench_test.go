package parmcts_test

// One benchmark per table/figure of the paper's evaluation (Section 5),
// plus ablation benches for the design choices EXPERIMENTS.md's benchmark
// table lists. The figure benchmarks print their stats.Table once (on the
// first iteration) so `go test -bench=.` both times the generators and
// records the data behind EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/experiments"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/perfmodel"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/simsched"
	"github.com/parmcts/parmcts/internal/stats"
	"github.com/parmcts/parmcts/internal/tree"
)

var printOnce sync.Map

func printFirst(b *testing.B, key string, tb *stats.Table) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", tb.String())
	}
}

// BenchmarkPhaseSplit reproduces the Section 2.1 claim (tree-based search
// dominates serial DNN-MCTS runtime) on a real network; each iteration is
// one profiled 60-playout move on a 9x9 board.
func BenchmarkPhaseSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, evalShare := experiments.PhaseSplit(9, 60)
		if i == 0 {
			printFirst(b, "phase", tb)
			b.Logf("DNN-evaluation share of move time: %.1f%%", evalShare*100)
		}
	}
}

// BenchmarkFigure3BatchSweep regenerates Figure 3 (per-iteration latency of
// the local-tree accelerator configuration across batch sizes B).
func BenchmarkFigure3BatchSweep(b *testing.B) {
	p := experiments.PaperShapedParams(1600)
	for i := 0; i < b.N; i++ {
		tb := experiments.Figure3BatchSweep(p, []int{16, 32, 64})
		if i == 0 {
			printFirst(b, "fig3", tb)
			printFirst(b, "fig3opt", experiments.OptimalBatch(p, []int{16, 32, 64}))
		}
	}
}

// BenchmarkFigure4LatencyCPU regenerates Figure 4 (CPU-only iteration
// latency: local vs shared vs adaptive across N).
func BenchmarkFigure4LatencyCPU(b *testing.B) {
	p := experiments.PaperShapedParams(1600)
	for i := 0; i < b.N; i++ {
		tb := experiments.Figure4LatencyCPU(p, experiments.DefaultWorkerCounts)
		if i == 0 {
			printFirst(b, "fig4", tb)
		}
	}
}

// BenchmarkFigure5LatencyGPU regenerates Figure 5 (CPU-GPU iteration
// latency with batched inference) and the headline speedup table.
func BenchmarkFigure5LatencyGPU(b *testing.B) {
	p := experiments.PaperShapedParams(1600)
	for i := 0; i < b.N; i++ {
		tb := experiments.Figure5LatencyGPU(p, experiments.DefaultWorkerCounts)
		if i == 0 {
			printFirst(b, "fig5", tb)
			printFirst(b, "headline", experiments.HeadlineSpeedups(p, experiments.DefaultWorkerCounts))
		}
	}
}

// BenchmarkFigure6Throughput regenerates Figure 6 (training throughput
// under optimal configurations) at the laptop scale.
func BenchmarkFigure6Throughput(b *testing.B) {
	sc := experiments.DefaultTrainingScale()
	sc.Game = "gomoku:7"
	sc.Playouts = 24
	sc.Episodes = 1
	sc.SGDIterations = 2
	for i := 0; i < b.N; i++ {
		tb := experiments.Figure6Throughput(sc, []int{1, 2, 4}, []bool{false, true})
		if i == 0 {
			printFirst(b, "fig6", tb)
		}
	}
}

// BenchmarkFigure7Loss regenerates Figure 7 (loss over wall-clock time for
// several worker counts) at the laptop scale.
func BenchmarkFigure7Loss(b *testing.B) {
	sc := experiments.DefaultTrainingScale()
	sc.Game = "gomoku:7"
	sc.Playouts = 24
	sc.Episodes = 2
	sc.SGDIterations = 2
	for i := 0; i < b.N; i++ {
		tb := experiments.Figure7Loss(sc, []int{1, 2, 4}, false)
		if i == 0 {
			printFirst(b, "fig7", tb)
		}
	}
}

// BenchmarkFindMinVvsLinear is the Algorithm 4 ablation: the O(log N)
// V-sequence search against the naive O(N) sweep over simulated test runs.
func BenchmarkFindMinVvsLinear(b *testing.B) {
	p := experiments.PaperShapedParams(1600)
	probe := func(bb int) time.Duration {
		return simsched.LocalAccel(p.Params, p.Playouts, 64, bb).PerIteration
	}
	b.Run("Alg4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perfmodel.FindMinV(1, 64, probe)
		}
	})
	b.Run("Linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perfmodel.ArgminLinear(1, 64, probe)
		}
	})
}

// BenchmarkEngineMoveReal times one real 200-playout move per engine on a
// 9x9 board with a cheap evaluator — the wall-clock counterpart of the
// simulated latency figures (note: host-core-count bound).
func BenchmarkEngineMoveReal(b *testing.B) {
	g := gomoku.NewSized(9)
	cfg := mcts.DefaultConfig()
	cfg.Playouts = 200
	eval := &evaluate.Random{Latency: 50 * time.Microsecond}

	b.Run("serial", func(b *testing.B) {
		e := mcts.NewSerial(cfg, eval)
		dist := make([]float32, g.NumActions())
		st := g.NewInitial()
		for i := 0; i < b.N; i++ {
			e.Search(st, dist)
		}
	})
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("shared-%d", n), func(b *testing.B) {
			e := mcts.NewShared(cfg, n, eval)
			dist := make([]float32, g.NumActions())
			st := g.NewInitial()
			for i := 0; i < b.N; i++ {
				e.Search(st, dist)
			}
		})
		b.Run(fmt.Sprintf("local-%d", n), func(b *testing.B) {
			pool := evaluate.NewPool(eval, n)
			defer pool.Close()
			e := mcts.NewLocal(cfg, pool, n)
			dist := make([]float32, g.NumActions())
			st := g.NewInitial()
			for i := 0; i < b.N; i++ {
				e.Search(st, dist)
			}
		})
	}
}

// BenchmarkAblationInterconnect times the accelerator-generality sweep
// (conclusion claim): re-running Algorithm 4 across interconnect classes.
func BenchmarkAblationInterconnect(b *testing.B) {
	p := experiments.PaperShapedParams(1600)
	for i := 0; i < b.N; i++ {
		tb := experiments.AblationInterconnect(p, 64)
		if i == 0 {
			printFirst(b, "interconnect", tb)
		}
	}
}

// BenchmarkAblationBaselines times the related-work comparison (shared /
// local / root-parallel / leaf-parallel at equal budgets).
func BenchmarkAblationBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.AblationBaselines(games.MustNew("gomoku:9"), 4, 100)
		if i == 0 {
			printFirst(b, "baselines", tb)
		}
	}
}

// BenchmarkVirtualLossModes is the virtual-loss ablation (constant VL vs
// WU-UCT-style unobserved counting) on the shared engine.
func BenchmarkVirtualLossModes(b *testing.B) {
	g := gomoku.NewSized(9)
	for name, mode := range map[string]tree.VirtualLossMode{"constant": tree.VLConstant, "unobserved": tree.VLUnobserved} {
		b.Run(name, func(b *testing.B) {
			cfg := mcts.DefaultConfig()
			cfg.Playouts = 200
			cfg.Tree.VLMode = mode
			e := mcts.NewShared(cfg, 4, &evaluate.Random{})
			dist := make([]float32, g.NumActions())
			st := g.NewInitial()
			for i := 0; i < b.N; i++ {
				e.Search(st, dist)
			}
		})
	}
}

// benchTreeReuse plays the opening of a Gomoku self-play game and measures
// the evaluation demand per move with persistent search sessions on or off:
// warm trees credit the played child's retained visits against the playout
// budget, so every retained visit is a DNN evaluation the move does not
// re-buy. The exploitation-leaning CPuct concentrates visits on the played
// child the way a trained prior does, and the modelled evaluation latency
// makes the saved evaluations visible in wall-clock. playouts/s counts
// budget-equivalents delivered per second — retained visits are playouts
// the move did not have to run. The fresh/warm pair backs the reuse numbers
// in EXPERIMENTS.md.
func benchTreeReuse(b *testing.B, reuse bool) {
	g := gomoku.NewSized(7)
	cfg := mcts.DefaultConfig()
	cfg.Playouts = 800
	cfg.Tree.CPuct = 0.8
	cfg.ReuseTree = reuse
	cfg.Seed = 5
	const moves = 12
	var evals, playoutsRun, reused, movesPlayed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := mcts.NewSerial(cfg, &evaluate.Random{Latency: 20 * time.Microsecond})
		st := g.NewInitial()
		dist := make([]float32, g.NumActions())
		for mv := 0; mv < moves && !st.Terminal(); mv++ {
			s := e.Search(st, dist)
			evals += s.Evaluations
			playoutsRun += s.Playouts
			reused += s.ReusedVisits
			movesPlayed++
			best, bestV := 0, float32(-1)
			for a, p := range dist {
				if p > bestV {
					best, bestV = a, p
				}
			}
			st.Play(best)
			e.Advance(best)
		}
		e.Close()
	}
	b.ReportMetric(float64(evals)/float64(movesPlayed), "evals/move")
	b.ReportMetric(float64(reused)/float64(reused+playoutsRun), "reuse-frac")
	b.ReportMetric(float64(playoutsRun+reused)/b.Elapsed().Seconds(), "playouts/s")
}

func BenchmarkTreeReuseGomokuFresh(b *testing.B) { benchTreeReuse(b, false) }
func BenchmarkTreeReuseGomokuWarm(b *testing.B)  { benchTreeReuse(b, true) }

// benchForwardBatch times nn.ForwardBatch on the paper's Gomoku network at
// one batch size; cmd/bench's nn.forward_* probes time the same call.
func benchForwardBatch(b *testing.B, batch int) {
	r := rng.New(7)
	net := nn.MustNew(nn.GomokuConfig(4, 15, 15, 225), r)
	ws := nn.NewBatchWorkspace(net, batch)
	inputs := make([][]float32, batch)
	policies := make([][]float32, batch)
	values := make([]float64, batch)
	for i := range inputs {
		in := make([]float32, net.InputLen())
		for j := range in {
			if r.Float32() < 0.1 {
				in[j] = 1
			}
		}
		inputs[i] = in
		policies[i] = make([]float32, 225)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(ws, inputs, policies, values)
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkForwardBatch1(b *testing.B)  { benchForwardBatch(b, 1) }
func BenchmarkForwardBatch8(b *testing.B)  { benchForwardBatch(b, 8) }
func BenchmarkForwardBatch32(b *testing.B) { benchForwardBatch(b, 32) }

// BenchmarkCacheContention compares the lock-striped evaluation cache
// against a single-mutex (shards=1) configuration under concurrent
// shared-tree-style access: 8 goroutines, hot working set, cheap inner
// evaluator so lock handoff dominates.
func BenchmarkCacheContention(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"global", 1}, {"sharded64", 64}} {
		b.Run(cfg.name, func(b *testing.B) {
			c := evaluate.NewCachedSharded(&evaluate.Random{}, 4096, cfg.shards)
			const workers = 8
			inputs := make([][]float32, 256)
			r := rng.New(3)
			for i := range inputs {
				in := make([]float32, 64)
				for j := range in {
					if r.Float32() < 0.3 {
						in[j] = 1
					}
				}
				inputs[i] = in
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := (b.N + workers - 1) / workers
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					pol := make([]float32, 9)
					for i := 0; i < per; i++ {
						c.Evaluate(inputs[(seed*31+i)%len(inputs)], pol)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
