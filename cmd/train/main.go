// Command train runs the continuous training service (internal/dist) on any
// registered scenario (-game gomoku:9, othello, hex:7, ...). Its role follows
// from two flags:
//
//   - with neither -listen nor -learner, a learner and one self-play worker
//     run in one process, joined by a framed net.Pipe instead of a socket;
//   - -listen addr runs only the learner, serving workers over TCP;
//   - -learner addr runs only a worker, which plays until signalled.
//
// Workers stream finished self-play episodes to the learner, which runs SGD
// and every -gate-every rounds gates a candidate against the incumbent
// (arena.GateCandidate); a promoted one is checkpointed, sent to every worker
// and swapped in at its next round barrier. A learner restarted on the same
// -ckpt resumes its model, and with -replay-dir its data; workers redial it,
// buffering episodes meanwhile. SIGTERM or SIGINT drains every role. All roles
// parse one flag set (OPERATIONS.md has its table).
//
// Usage:
//
//	train [-game gomoku:9] [-games 8] [-workers 4] [-playouts 100] [-rounds 12]
//	      [-gate-every 2] [-gate-games 12] [-win-rate 0.55]
//	      [-ckpt checkpoints] [-replay-dir traj] [-replay-retain 100000]
//	      [-reuse] [-transpose on:65536] [-full-net] [-seed 1]
//	train -listen :9876 [-round-games 8] [-round-timeout 10s] [learner flags]
//	train -learner host:9876 [-id worker-1] [-buffer 256] [worker flags]
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/parmcts/parmcts/internal/dist"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/tensor"
	"github.com/parmcts/parmcts/internal/train"
)

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
}

func main() {
	learnerConfig, workerConfig := dist.Flags(flag.CommandLine)
	var (
		listen      = flag.String("listen", "", "run only the learner, serving TCP workers on this address (e.g. :9876)")
		learnerAddr = flag.String("learner", "", "run only a worker, playing for the learner at this address (host:port) until signalled")
		cacheSize   = flag.Int("cache", 1<<16, "evaluation cache capacity (positions) of each model version (0 = default, negative disables)")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()
	if *listen != "" && *learnerAddr != "" {
		fmt.Fprintln(os.Stderr, "train: -listen runs only the learner and -learner only a worker; give at most one")
		os.Exit(2)
	}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }

	var (
		lcfg    dist.LearnerConfig
		wcfg    dist.WorkerConfig
		learner *dist.Learner
		worker  *dist.Worker
		err     error
	)
	if *learnerAddr == "" {
		lcfg, err = learnerConfig()
		fatal(err)
		if lcfg.Traj != nil {
			defer lcfg.Traj.Close()
		}
		lcfg.Logf = logf
	}
	// Each network a worker receives gets a cache of its own, let go at the
	// next swap, where no game is in flight and so its counters are final.
	var cache *evaluate.Cached
	var hits, misses, versions uint64
	retireCache := func() {
		if cache != nil {
			h, m := cache.Stats()
			hits, misses, versions = hits+h, misses+m, versions+1
		}
	}
	if *listen == "" {
		wcfg, err = workerConfig()
		fatal(err)
		wcfg.Logf = logf
		if size := cmp.Or(*cacheSize, 1<<16); size > 0 {
			wcfg.NewEvaluator = func(net *nn.Network) evaluate.Evaluator {
				retireCache()
				cache = evaluate.NewCached(evaluate.NewNN(net), size)
				return cache
			}
		}
	}

	switch {
	case *listen != "":
		lis, err := dist.ListenTCP(*listen)
		fatal(err)
		learner, err = dist.NewLearner(lis, lcfg)
		fatal(err)
		fmt.Printf("learner: %s on %s, %d episodes/round, %s\n", lcfg.GameSpec, lis.Addr(), lcfg.RoundGames, gating(lcfg))
	case *learnerAddr != "":
		wcfg.ID = cmp.Or(wcfg.ID, fmt.Sprintf("worker-%d", os.Getpid()))
		wcfg.Dial = dist.TCPDialer(*learnerAddr)
		worker, err = dist.NewWorker(wcfg)
		fatal(err)
		fmt.Printf("worker %s: %s, %d games x %d playouts -> %s\n", wcfg.ID, wcfg.GameSpec, wcfg.Games, wcfg.Playouts, *learnerAddr)
	default:
		wcfg.ID = cmp.Or(wcfg.ID, "local")
		learner, worker, err = dist.InProcess(lcfg, wcfg)
		fatal(err)
		fmt.Printf("training service: %s, %d games x %d playouts, %s\n", lcfg.GameSpec, wcfg.Games, wcfg.Playouts, gating(lcfg))
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		fmt.Printf("train: %v, draining\n", <-sigs)
		if learner != nil {
			learner.Stop()
		}
		if worker != nil {
			worker.Stop()
		}
	}()

	if learner == nil {
		fmt.Println("done:", worker.Run())
	} else {
		workerDone := make(chan dist.WorkerStats, 1)
		if worker != nil {
			go func() { workerDone <- worker.Run() }()
		}
		report := learner.Run(func(s train.LoopRoundStats) { fmt.Println(dist.RoundLine(s)) })
		summary := learner.Summary(report)
		if worker != nil {
			worker.Stop()
			summary += fmt.Sprintln("worker:", <-workerDone)
		}
		fmt.Print(summary)
	}
	if cache != nil {
		retireCache()
		fmt.Printf("cache: %d/%d hit over %d model versions\n", hits, hits+misses, versions)
	}
}

// gating describes the learner's promotion gate and where it checkpoints.
func gating(cfg dist.LearnerConfig) string {
	return fmt.Sprintf("gate every %d rounds (%d games, win-rate >= %.2f), checkpoints in %s",
		cfg.Loop.GateEvery, cfg.Gate.Games, cfg.Gate.WinThreshold, cfg.Store.Dir())
}
