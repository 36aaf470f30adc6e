package experiments

import (
	"fmt"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/adaptive"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	_ "github.com/parmcts/parmcts/internal/game/games" // link the scenario catalogue
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/selfplay"
	"github.com/parmcts/parmcts/internal/stats"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/tree"
)

// TrainingScale sizes the real-execution training experiments (Figures 6
// and 7). The paper trains Gomoku 15x15 with 1600 playouts/move on 64
// cores; the defaults here are scaled so the experiments complete on a
// laptop in minutes while exercising the identical pipeline. Pass larger
// values (and e.g. Game "gomoku:15") to approach the paper's
// configuration, or any other registered scenario spec ("othello",
// "hex:11") to measure a different workload.
type TrainingScale struct {
	Game          string // registered game spec (default "gomoku:9")
	Playouts      int    // per-move budget (paper: 1600)
	Episodes      int    // self-play games per configuration
	SGDIterations int    // updates per episode
	BatchSize     int    // SGD mini-batch
	TempMoves     int    // exploration temperature horizon
	TinyNet       bool
	Seed          uint64
	// Backend names the registered accel backend serving the accelerator
	// platform ("" = "hosted").
	Backend string
	// TransposeSize > 0 gives the engine a transposition-sharing DAG search
	// over a table of that entry budget, cleared after every SGD step
	// (0 = classic tree search).
	TransposeSize int
}

// DefaultTrainingScale returns a configuration that runs in seconds.
func DefaultTrainingScale() TrainingScale {
	return TrainingScale{
		Game:          "gomoku:9",
		Playouts:      48,
		Episodes:      2,
		SGDIterations: 4,
		BatchSize:     32,
		TempMoves:     4,
		TinyNet:       true,
		Seed:          1,
	}
}

// game instantiates the configured scenario.
func (sc TrainingScale) game() (game.Game, error) {
	spec := sc.Game
	if spec == "" {
		spec = "gomoku:9"
	}
	return game.NewFromSpec(spec)
}

func (sc TrainingScale) network(g game.Game) *nn.Network {
	c, h, w := g.EncodedShape()
	return nn.MustNew(nn.ConfigFor(!sc.TinyNet, c, h, w, g.NumActions()), rng.New(sc.Seed))
}

// trainer is Algorithm 1's loop over one engine: an episode is a round of one
// game.
func (sc TrainingScale) trainer(g game.Game, eng mcts.Engine, net *nn.Network) *selfplay.Trainer {
	d := selfplay.NewDriver(g, []mcts.Engine{eng}, train.NewReplay(50000), train.AugmenterFor(g), selfplay.Config{
		TempMoves: sc.TempMoves,
		Seed:      sc.Seed,
	})
	return selfplay.NewTrainer(d, net, selfplay.TrainerConfig{
		Rounds:        sc.Episodes,
		SGDIterations: sc.SGDIterations,
		BatchSize:     sc.BatchSize,
		LR:            0.01,
		Momentum:      0.9,
		WeightDecay:   1e-4,
		Seed:          sc.Seed,
	})
}

// UseAccelDevice points opts at the accelerator platform, served by the
// registered accel backend name ("" = "hosted") over net: the paper-shaped
// cost model for opts' playouts-per-move budget, carrying g's encoded position
// per request.
func UseAccelDevice(opts *adaptive.Options, name string, g game.Game, net *nn.Network) error {
	c, h, w := g.EncodedShape()
	cost := *PaperShapedParams(opts.Search.Playouts).GPU
	cost.BytesPerSample = c * h * w * 4
	if name == "" {
		name = "hosted"
	}
	link, err := accel.NewBackend(name, accel.BackendSpec{Net: net, Cost: cost})
	if err != nil {
		return err
	}
	opts.Platform = adaptive.PlatformAccel
	opts.Link = link
	return nil
}

// train runs Algorithm 1 on the adaptively-configured engine for N workers
// on the requested platform, sharing a fresh network for both search and
// training. The experiment owns the transposition table and clears it after
// every SGD step, whose weights stale its stored evaluations and statistics.
func (sc TrainingScale) train(g game.Game, n int, useAccel bool) (*adaptive.Engine, []selfplay.RoundStats, error) {
	net := sc.network(g)
	search := mcts.DefaultConfig()
	search.Playouts = sc.Playouts
	search.DirichletAlpha = 0.3
	search.NoiseFrac = 0.25
	search.Seed = sc.Seed
	if sc.TransposeSize > 0 {
		search.TransposeTable = tree.NewTransTable(sc.TransposeSize)
	}
	opts := adaptive.Options{
		Search:          search,
		Workers:         n,
		ProfilePlayouts: 200,
		DNNProfileIters: 5,
	}
	if useAccel {
		if err := UseAccelDevice(&opts, sc.Backend, g, net); err != nil {
			return nil, nil, err
		}
	} else {
		opts.Platform = adaptive.PlatformCPU
		opts.Evaluator = evaluate.NewNN(net)
	}
	eng, err := adaptive.Configure(g, opts)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	return eng, sc.trainer(g, eng, net).Run(func(selfplay.RoundStats) {
		if tt := search.TransposeTable; tt != nil {
			tt.Reset()
		}
	}), nil
}

// Figure6Throughput regenerates Figure 6: end-to-end training throughput
// (processed samples per second) across worker counts, on the CPU-only and
// (optionally) the accelerator platform, each under the adaptive
// configuration. One sample = one move's 1600-playout search, matching the
// paper's metric.
func Figure6Throughput(sc TrainingScale, ns []int, platforms []bool) *stats.Table {
	g, err := sc.game()
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	tb := stats.NewTable(fmt.Sprintf("Figure 6: training throughput under optimal configurations (%s)", sc.Game),
		"platform", "N", "scheme", "samples/s", "search time", "train time")
	for _, useAccel := range platforms {
		platform := "cpu"
		if useAccel {
			platform = "cpu-gpu"
		}
		for _, n := range ns {
			eng, all, err := sc.train(g, n, useAccel)
			if err != nil {
				tb.AddRow(platform, n, "error", err.Error(), "", "")
				continue
			}
			var samples int
			var searchT, trainT float64
			for _, s := range all {
				samples += s.Samples
				searchT += s.SearchTime.Seconds()
				trainT += s.TrainTime.Seconds()
			}
			throughput := 0.0
			if searchT+trainT > 0 {
				throughput = float64(samples) / (searchT + trainT)
			}
			tb.AddRow(platform, n, eng.Decision.Choice.Scheme.String(),
				fmt.Sprintf("%.2f", throughput),
				fmt.Sprintf("%.2fs", searchT), fmt.Sprintf("%.2fs", trainT))
		}
	}
	return tb
}

// Figure7Loss regenerates Figure 7: the Equation 2 loss over wall-clock
// time for several worker counts, each under its optimal configuration.
// Rows carry (N, episode, elapsed, value loss, policy loss, total).
func Figure7Loss(sc TrainingScale, ns []int, useAccel bool) *stats.Table {
	g, err := sc.game()
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	tb := stats.NewTable(fmt.Sprintf("Figure 7: DNN loss over time under optimal parallel configurations (%s)", sc.Game),
		"N", "episode", "elapsed", "value loss", "policy loss", "total loss")
	for _, n := range ns {
		_, all, err := sc.train(g, n, useAccel)
		if err != nil {
			tb.AddRow(n, "error", err.Error(), "", "", "")
			continue
		}
		for _, s := range all {
			tb.AddRow(n, s.Round, s.Elapsed.Round(1e6),
				s.Loss.ValueLoss, s.Loss.PolicyLoss, s.Loss.TotalLoss())
		}
	}
	return tb
}
