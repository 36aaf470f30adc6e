// Command learner runs the training half of the distributed self-play
// split: it listens for worker connections, assembles their streamed
// episodes into generation rounds, owns SGD and the replay ring, gates
// candidate snapshots in local arena matches, and on every promotion
// commits a checkpoint and fans it out to all connected workers.
//
// The learner is restart-safe: killed and restarted with the same -ckpt
// and -replay-dir, it resumes from the latest committed checkpoint and
// re-ingests the newest stored games; workers redial with backoff and
// receive the current model in the hello exchange, so a learner restart
// costs the fleet only the reconnect window.
//
// Usage:
//
//	learner [-listen :9876] [-game gomoku:9] [-round-games 8]
//	        [-round-timeout 10s] [-rounds 12] [-gate-every 2]
//	        [-gate-games 12] [-gate-playouts 60] [-win-rate 0.55]
//	        [-sgd 8] [-min-samples 256] [-ckpt checkpoints]
//	        [-replay-dir traj] [-full-net] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/parmcts/parmcts/internal/dist"
	"github.com/parmcts/parmcts/internal/train"
)

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "learner:", err)
		os.Exit(1)
	}
}

func main() {
	config := dist.LearnerFlags(flag.CommandLine, dist.RegisterRunFlags(flag.CommandLine))
	var (
		listen       = flag.String("listen", ":9876", "TCP address workers connect to")
		roundGames   = flag.Int("round-games", 8, "worker episodes per generation round")
		roundTimeout = flag.Duration("round-timeout", 10*time.Second, "max wait to fill a round after its first episode (bounds the cost of a dead worker)")
	)
	flag.Parse()
	if *roundGames < 1 {
		fmt.Fprintln(os.Stderr, "learner: -round-games must be >= 1")
		os.Exit(2)
	}

	cfg, err := config()
	fatal(err)
	if cfg.Traj != nil {
		defer cfg.Traj.Close()
	}
	lis, err := dist.ListenTCP(*listen)
	fatal(err)
	cfg.RoundGames = *roundGames
	cfg.RoundTimeout = *roundTimeout
	cfg.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	learner, err := dist.NewLearner(lis, cfg)
	fatal(err)

	// SIGTERM/SIGINT drain the loop: no new rounds are requested, in-flight
	// state is consumed, checkpoints and the replay store stay committed.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Printf("learner: %v, draining\n", s)
		learner.Stop()
	}()

	fmt.Printf("learner: %s on %s, %d episodes/round, gate every %d rounds (%d games, win-rate >= %.2f), checkpoints in %s\n",
		cfg.GameSpec, lis.Addr(), *roundGames, cfg.Loop.GateEvery, cfg.Gate.Games, cfg.Gate.WinThreshold, cfg.Store.Dir())
	report := learner.Run(func(s train.LoopRoundStats) { fmt.Println(dist.RoundLine(s)) })
	fmt.Print(learner.Summary(report))
}
