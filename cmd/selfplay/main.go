// Command selfplay runs the complete adaptive DNN-MCTS training pipeline
// (Algorithm 1) on any registered scenario: the design configuration
// workflow picks the parallel scheme for the requested worker count and
// platform, then self-play episodes alternate with SGD updates, printing
// per-round loss and throughput. The trained network is optionally saved
// for later use.
//
// Each round plays -games G games concurrently (an episode is a round of
// one), every game's search sharing ONE inference service (and, with G > 1 on
// the CPU path, one evaluation cache), so the device sees an aggregated
// batch stream instead of G under-filled queues.
//
// Usage:
//
//	selfplay [-n 4] [-games 1] [-game gomoku:9] [-playouts 100] [-episodes 8]
//	         [-platform cpu|gpu] [-backend hosted|model]
//	         [-kernel generic|avx2] [-reuse] [-transpose on:65536]
//	         [-full-net] [-save model.bin]
//
// -game takes a registry spec: gomoku:9, othello, hex:11, connect4, ...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/adaptive"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/experiments"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/perfmodel"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/selfplay"
	"github.com/parmcts/parmcts/internal/tensor"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/tree"
)

func main() {
	var (
		n         = flag.Int("n", 4, "parallel workers")
		nGames    = flag.Int("games", 1, "concurrent self-play games sharing one inference service")
		gameSpec  = games.Flag(flag.CommandLine, "gomoku:9", "")
		playouts  = mcts.PlayoutsFlag(flag.CommandLine, 100, "")
		episodes  = flag.Int("episodes", 8, "self-play episodes (rounds of -games each when -games > 1)")
		platform  = flag.String("platform", "cpu", "cpu or gpu")
		scheme    = flag.String("scheme", "auto", "auto, shared, or local: force a parallel scheme instead of the model decision")
		reuse     = mcts.ReuseFlag(flag.CommandLine, false, ": retain the played subtree across moves instead of rebuilding the tree")
		transpose = tree.TransposeFlag(flag.CommandLine, "off", "")
		fullNet   = nn.FullNetFlag(flag.CommandLine, "")
		backend   = flag.String("backend", "", "accel backend for -platform gpu: "+strings.Join(accel.BackendNames(), ", ")+" (default hosted)")
		savePath  = flag.String("save", "", "write the trained network here")
		seed      = rng.SeedFlag(flag.CommandLine, "")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()
	if *nGames < 1 {
		fmt.Fprintln(os.Stderr, "selfplay: -games must be >= 1")
		os.Exit(2)
	}

	g := games.ResolveFlag("selfplay", *gameSpec, "gomoku:9")
	c, h, w := g.EncodedShape()
	net := nn.MustNew(nn.ConfigFor(*fullNet, c, h, w, g.NumActions()), rng.New(*seed))

	search := mcts.DefaultConfig()
	search.Playouts = *playouts
	search.DirichletAlpha = 0.3
	search.NoiseFrac = 0.25
	search.Seed = *seed
	search.ReuseTree = *reuse
	transSize := tree.ResolveTransposeFlag("selfplay", *transpose)
	var transTable *tree.TransTable
	if transSize > 0 {
		// One lock-striped table for the run — with -games > 1 the whole
		// fleet shares it, so concurrent games converge on shared statistics
		// for transposed positions. Held here (not session-private) so the
		// training callbacks can clear it when an SGD update stales the
		// stored evaluations.
		transTable = tree.NewTransTable(transSize)
		search.TransposeTable = transTable
	}
	opts := adaptive.Options{
		Search:          search,
		Workers:         *n,
		ProfilePlayouts: 200,
		DNNProfileIters: 5,
	}
	switch *scheme {
	case "auto":
	case "shared":
		s := perfmodel.SchemeShared
		opts.ForceScheme = &s
	case "local":
		s := perfmodel.SchemeLocal
		opts.ForceScheme = &s
	default:
		fmt.Fprintln(os.Stderr, "selfplay: -scheme must be auto, shared, or local")
		os.Exit(2)
	}
	if *platform == "gpu" {
		if err := experiments.UseAccelDevice(&opts, *backend, g, net); err != nil {
			fmt.Fprintln(os.Stderr, "selfplay:", err)
			os.Exit(2)
		}
	} else {
		opts.Platform = adaptive.PlatformCPU
		if *nGames > 1 {
			// Concurrent tenants share one lock-striped evaluation cache;
			// it is cleared after every SGD update (see the round callback).
			opts.Evaluator = evaluate.NewCached(evaluate.NewNN(net), 1<<16)
		} else {
			opts.Evaluator = evaluate.NewNN(net)
		}
	}
	fleet, err := adaptive.ConfigureFleet(g, *nGames, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfplay:", err)
		os.Exit(1)
	}
	defer fleet.Close()
	fmt.Println("configuration:", fleet.Decision)

	driver := selfplay.NewDriver(g, fleet.Engines, train.NewReplay(50000), train.AugmenterFor(g), selfplay.Config{
		TempMoves: 6,
		Seed:      *seed,
	})
	tr := selfplay.NewTrainer(driver, net, selfplay.TrainerConfig{
		Rounds:        *episodes,
		SGDIterations: 8,
		BatchSize:     64,
		LR:            0.01,
		Momentum:      0.9,
		WeightDecay:   1e-4,
		Seed:          *seed,
	})
	tr.Run(func(s selfplay.RoundStats) {
		line := fmt.Sprintf("round %2d: games=%d moves=%3d loss=%.4f (v=%.4f p=%.4f) throughput=%.2f samples/s elapsed=%v",
			s.Round, s.Games, s.Moves, s.Loss.TotalLoss(), s.Loss.ValueLoss,
			s.Loss.PolicyLoss, s.Throughput(), s.Elapsed.Round(1e6))
		if fleet.Server != nil {
			line += fmt.Sprintf(" avg-batch-fill=%.1f", fleet.Server.Stats().AvgFill())
		}
		if *reuse {
			line += fmt.Sprintf(" reuse=%.2f", s.Search.ReuseFraction())
		}
		if transSize > 0 {
			line += fmt.Sprintf(" transpose=%.2f", s.Search.TransposeFraction())
		}
		fmt.Println(line)
		if cached, ok := opts.Evaluator.(*evaluate.Cached); ok {
			cached.Reset() // the SGD update invalidated cached evaluations
		}
		if transTable != nil {
			transTable.Reset() // shared stats/evals are stale after the update too
		}
	})

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "selfplay: save:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := net.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, "selfplay: save:", err)
			os.Exit(1)
		}
		fmt.Println("saved network to", *savePath)
	}
}
