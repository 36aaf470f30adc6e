package experiments

import (
	"fmt"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/perfmodel"
	"github.com/parmcts/parmcts/internal/simsched"
	"github.com/parmcts/parmcts/internal/stats"
	"github.com/parmcts/parmcts/internal/tree"
)

// AblationVirtualLoss studies the virtual-loss magnitude (Section 2.1: VL
// "can either be a pre-defined constant value or a number tracking visit
// counts"). For each magnitude it runs the shared-tree engine on a
// low-fanout game (tic-tac-toe, where in-flight workers genuinely collide)
// and reports the duplicate-expansion count — rollouts whose DNN
// evaluation was wasted because another worker expanded the same leaf —
// which is precisely the waste virtual loss exists to reduce.
func AblationVirtualLoss(g game.Game, magnitudes []float64, workers, playouts int) *stats.Table {
	tb := stats.NewTable(fmt.Sprintf("Ablation: virtual-loss magnitude (shared tree, %s)", g.Name()),
		"VL", "duplicate expansions", "nodes allocated", "avg depth")
	for _, vl := range magnitudes {
		cfg := mcts.DefaultConfig()
		cfg.Playouts = playouts
		cfg.Tree.VirtualLoss = vl
		// A non-trivial evaluation latency keeps several rollouts in
		// flight simultaneously so virtual loss actually has work to do.
		eng := mcts.NewShared(cfg, workers, &evaluate.Random{Latency: 100 * time.Microsecond})
		dist := make([]float32, g.NumActions())
		stats1 := eng.Search(g.NewInitial(), dist)
		tb.AddRow(vl, eng.Tree().DoubleExpansions(), eng.Tree().Allocated(),
			fmt.Sprintf("%.2f", stats1.AvgDepth()))
	}
	return tb
}

// AblationVLMode contrasts the three virtual-loss semantics on identical
// budgets: none (workers collide freely), the constant penalty (Chaslot et
// al.), and the WU-UCT unobserved-count variant that only inflates visit
// counts.
func AblationVLMode(g game.Game, workers, playouts int) *stats.Table {
	tb := stats.NewTable(fmt.Sprintf("Ablation: virtual-loss semantics (shared tree, %s)", g.Name()),
		"mode", "duplicate expansions", "nodes allocated", "move time")
	for _, mode := range []struct {
		name string
		m    tree.VirtualLossMode
	}{
		{"none", tree.VLNone},
		{"constant", tree.VLConstant},
		{"unobserved (WU-UCT)", tree.VLUnobserved},
	} {
		cfg := mcts.DefaultConfig()
		cfg.Playouts = playouts
		cfg.Tree.VLMode = mode.m
		eng := mcts.NewShared(cfg, workers, &evaluate.Random{Latency: 100 * time.Microsecond})
		dist := make([]float32, g.NumActions())
		s := eng.Search(g.NewInitial(), dist)
		tb.AddRow(mode.name, eng.Tree().DoubleExpansions(), eng.Tree().Allocated(),
			s.Duration.Round(time.Millisecond))
	}
	return tb
}

// AblationInterconnect exercises the conclusion's generality claim ("our
// method and performance models ... can also be adopted in the context of
// many other types of accelerators — FPGAs, ASICs (e.g., TPUs)"): across
// accelerator classes with different launch-cost/compute profiles, the
// optimal sub-batch size B* moves substantially, and Algorithm 4 re-finds
// it each time with the same O(log N) probe budget — no per-device manual
// retuning.
func AblationInterconnect(p LatencyParams, n int) *stats.Table {
	tb := stats.NewTable("Ablation: accelerator class vs optimal batch size",
		"class", "launch", "compute(B)", "B*", "per-iteration", "probes")
	type point struct {
		name      string
		launch    time.Duration
		base, per time.Duration
	}
	points := []point{
		{"RPC-attached fast ASIC", 50 * time.Microsecond, 10 * time.Microsecond, 2 * time.Microsecond},
		{"high-latency link GPU", 100 * time.Microsecond, 5 * time.Microsecond, time.Microsecond},
		{"paper-calibrated GPU", 10 * time.Microsecond, 40 * time.Microsecond, 8 * time.Microsecond},
		{"on-package accelerator", 2 * time.Microsecond, 5 * time.Microsecond, time.Microsecond},
	}
	for _, pt := range points {
		m := *p.GPU
		m.LaunchLatency = pt.launch
		m.ComputeBase = pt.base
		m.ComputePerSample = pt.per
		dev := p.Params
		dev.GPU = &m
		probe := func(b int) time.Duration {
			return simsched.LocalAccel(dev, p.Playouts, n, b).PerIteration
		}
		bStar, probes := perfmodel.FindMinV(1, n, probe)
		tb.AddRow(pt.name, pt.launch,
			fmt.Sprintf("%v+%v*B", pt.base, pt.per), bStar, probe(bStar), probes)
	}
	return tb
}

// AblationBaselines compares the paper's two tree-parallel schemes against
// the related-work baselines (Section 2.2) on equal real budgets: wall
// clock per move and nodes expanded. Leaf-parallel wastes its K-fold
// evaluations on one leaf (identical with a deterministic DNN);
// root-parallel re-explores the same states in every worker's private
// tree.
func AblationBaselines(g game.Game, workers, playouts int) *stats.Table {
	tb := stats.NewTable(fmt.Sprintf("Ablation: tree-parallel vs related-work baselines (%s)", g.Name()),
		"engine", "move time", "distinct tree nodes", "evaluations")
	eval := &evaluate.Random{Latency: 100 * time.Microsecond}
	dist := make([]float32, g.NumActions())

	run := func(name string, e mcts.Engine, nodes func() int, evals func(mcts.Stats) int) {
		s := e.Search(g.NewInitial(), dist)
		tb.AddRow(name, s.Duration.Round(time.Millisecond), nodes(), evals(s))
		e.Close()
	}

	// Every engine now reports its exact DNN-request count in
	// Stats.Evaluations (leaf-parallel counts all K evaluations per leaf).
	evals := func(s mcts.Stats) int { return s.Evaluations }

	shared := mcts.NewShared(mctsCfg(playouts), workers, eval)
	run("shared tree (Alg.2)", shared,
		func() int { return shared.Tree().Allocated() }, evals)

	pool := evaluate.NewPool(eval, workers)
	local := mcts.NewLocal(mctsCfg(playouts), pool, workers)
	run("local tree (Alg.3)", local,
		func() int { return local.Tree().Allocated() }, evals)
	pool.Close()

	rootPar := mcts.NewRootParallel(mctsCfg(playouts), workers, eval)
	run("root-parallel", rootPar,
		func() int { return -1 }, // W private trees; distinctness not defined
		evals)

	pool2 := evaluate.NewPool(eval, workers)
	leafPar := mcts.NewLeafParallel(mctsCfg(playouts), workers, pool2)
	run(fmt.Sprintf("leaf-parallel (K=%d)", workers), leafPar,
		func() int { return -1 }, evals)
	pool2.Close()

	return tb
}

func mctsCfg(playouts int) mcts.Config {
	cfg := mcts.DefaultConfig()
	cfg.Playouts = playouts
	return cfg
}
