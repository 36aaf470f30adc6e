// Command train runs the continuous training service on any registered
// scenario (-game gomoku:9, othello, hex:7, ...) in one process: a learner
// and one self-play worker (internal/dist) joined by a framed net.Pipe
// instead of a socket. The worker's G concurrent games generate through one
// shared inference service and stream every finished episode to the learner,
// which runs SGD on a live parameter set and, every -gate-every rounds, plays
// a candidate snapshot against the incumbent (arena.GateCandidate) before
// promoting it — checkpointed to disk, sent to the worker, and hot-swapped
// behind its server at the next round barrier. It is cmd/learner plus
// cmd/worker minus the sockets; OPERATIONS.md has the one flag table.
//
// If the checkpoint directory already holds committed versions, training
// resumes from the latest one and version numbering continues. With
// -replay-dir set, every finished game is also committed to a durable
// trajectory store (internal/trajstore), so a killed run resumes with BOTH
// its model and its data. A replay-store write error never stops training:
// the store degrades to read-only and the run continues on the in-memory ring.
//
// Usage:
//
//	train [-game gomoku:9] [-games 8] [-workers 4] [-playouts 100] [-rounds 12]
//	      [-gate-every 2] [-gate-games 12] [-win-rate 0.55]
//	      [-ckpt checkpoints] [-replay-dir traj] [-replay-retain 100000]
//	      [-reuse] [-transpose on:65536] [-full-net] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/parmcts/parmcts/internal/dist"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/tensor"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/tree"
)

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
}

func main() {
	run := dist.RegisterRunFlags(flag.CommandLine)
	learnerConfig := dist.LearnerFlags(flag.CommandLine, run)
	workerConfig := dist.WorkerFlags(flag.CommandLine, run)
	var (
		cacheSize = flag.Int("cache", 1<<16, "evaluation cache capacity (positions) of each model version (0 = default, negative disables)")
		reuse     = mcts.ReuseFlag(flag.CommandLine, false, " across moves")
		transpose = tree.TransposeFlag(flag.CommandLine, "off", "")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()

	lcfg, err := learnerConfig()
	fatal(err)
	if lcfg.Traj != nil {
		defer lcfg.Traj.Close()
	}
	wcfg, err := workerConfig()
	fatal(err)
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	fabric := dist.NewNetwork()
	lis, err := fabric.Listen()
	fatal(err)

	lcfg.RoundGames = wcfg.Games
	lcfg.Logf = logf
	learner, err := dist.NewLearner(lis, lcfg)
	fatal(err)

	// The three options a remote worker does not take. Each received network
	// gets a cache of its own, so an entry can never outlive its weights; the
	// superseded cache is let go at the swap (no game is in flight there, so
	// its counters are final) rather than kept for the summary.
	var cache *evaluate.Cached
	var hits, misses uint64
	versions := 0
	retireCache := func() {
		if cache != nil {
			h, m := cache.Stats()
			hits, misses = hits+h, misses+m
		}
	}
	if *cacheSize == 0 {
		*cacheSize = 1 << 16
	}
	if *cacheSize > 0 {
		wcfg.NewEvaluator = func(net *nn.Network) evaluate.Evaluator {
			retireCache()
			cache = evaluate.NewCached(evaluate.NewNN(net), *cacheSize)
			versions++
			return cache
		}
	}
	wcfg.ReuseTree = *reuse
	wcfg.TransposeSize = tree.ResolveTransposeFlag("train", *transpose)
	wcfg.ID = "local"
	// -rounds is both halves' bound: the worker plays exactly the rounds the
	// learner consumes, so no generated game goes unused at the end of a run.
	wcfg.Rounds = lcfg.Loop.Rounds
	wcfg.Dial = fabric.Dialer()
	wcfg.Logf = logf
	worker, err := dist.NewWorker(wcfg)
	fatal(err)
	workerDone := make(chan dist.WorkerStats, 1)
	go func() { workerDone <- worker.Run() }()

	fmt.Printf("training service: %s, %d games x %d playouts, gate every %d rounds (%d games, win-rate >= %.2f), checkpoints in %s\n",
		lcfg.GameSpec, wcfg.Games, wcfg.Playouts, lcfg.Loop.GateEvery, lcfg.Gate.Games, lcfg.Gate.WinThreshold, lcfg.Store.Dir())
	report := learner.Run(func(s train.LoopRoundStats) { fmt.Println(dist.RoundLine(s)) })
	worker.Stop()
	stats := <-workerDone

	fmt.Print(learner.Summary(report))
	fmt.Println("worker:", stats)
	if cache != nil {
		retireCache()
		fmt.Printf("cache: %d/%d hit over %d model versions\n", hits, hits+misses, versions)
	}
}
