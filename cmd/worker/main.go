// Command worker runs the generation half of the distributed self-play
// split: a fleet of -games concurrent self-play games over one local
// shared inference service, streaming every finished episode to the
// learner at -learner and hot-swapping in each promoted checkpoint at the
// next round barrier (so every game finishes on the model it started
// with).
//
// Workers are disposable: a killed worker costs the learner at most one
// round-timeout of fill, and a worker that outlives a learner restart
// redials with exponential backoff, re-hellos, and receives the current
// model again. Episodes finished while disconnected are buffered (bounded,
// oldest dropped) and flushed after reconnect.
//
// Usage:
//
//	worker -learner host:9876 [-game gomoku:9] [-id worker-1] [-games 8]
//	       [-playouts 100] [-workers 4] [-rounds 0] [-buffer 256] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/parmcts/parmcts/internal/dist"
	"github.com/parmcts/parmcts/internal/tensor"
)

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

func main() {
	config := dist.WorkerFlags(flag.CommandLine, dist.RegisterRunFlags(flag.CommandLine))
	var (
		learnerAddr = flag.String("learner", "", "learner address (host:port, required)")
		id          = flag.String("id", "", "worker name in learner logs, mixed into -seed so workers given one seed play different games (default worker-<pid>)")
		rounds      = flag.Int("rounds", 0, "generation rounds to play (0 = until signalled)")
		buffer      = flag.Int("buffer", 256, "episodes buffered while disconnected (oldest dropped when full)")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()
	if *learnerAddr == "" {
		fmt.Fprintln(os.Stderr, "worker: -learner is required")
		os.Exit(2)
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}

	cfg, err := config()
	fatal(err)
	cfg.ID = *id
	cfg.Dial = dist.TCPDialer(*learnerAddr)
	cfg.Rounds = *rounds
	cfg.BufferEpisodes = *buffer
	cfg.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	w, err := dist.NewWorker(cfg)
	fatal(err)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Printf("worker %s: %v, stopping after this round\n", *id, s)
		w.Stop()
	}()

	fmt.Printf("worker %s: %s, %d games x %d playouts -> %s\n", *id, cfg.GameSpec, cfg.Games, cfg.Playouts, *learnerAddr)
	fmt.Println("done:", w.Run())
}
