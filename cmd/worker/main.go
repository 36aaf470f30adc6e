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
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/tensor"
)

func main() {
	var (
		learnerAddr = flag.String("learner", "", "learner address (host:port, required)")
		gameSpec    = flag.String("game", "gomoku:9", games.FlagHelp())
		id          = flag.String("id", "", "worker name in learner logs (default worker-<pid>)")
		nGames      = flag.Int("games", 8, "concurrent self-play games (tenants of the local shared service)")
		playouts    = flag.Int("playouts", 100, "per-move playout budget of the self-play engines")
		workers     = flag.Int("workers", 4, "inference threads of the local service; also each game's in-flight bound")
		rounds      = flag.Int("rounds", 0, "generation rounds to play (0 = until signalled)")
		buffer      = flag.Int("buffer", 256, "episodes buffered while disconnected (oldest dropped when full)")
		seed        = flag.Uint64("seed", 1, "run seed")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()
	if *learnerAddr == "" {
		fmt.Fprintln(os.Stderr, "worker: -learner is required")
		os.Exit(2)
	}
	if *nGames < 1 || *workers < 1 {
		fmt.Fprintln(os.Stderr, "worker: -games and -workers must be >= 1")
		os.Exit(2)
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}

	g := games.ResolveFlag("worker", *gameSpec, "gomoku:9")
	w, err := dist.NewWorker(dist.WorkerConfig{
		ID:             *id,
		Game:           g,
		GameSpec:       *gameSpec,
		Dial:           dist.TCPDialer(*learnerAddr),
		Games:          *nGames,
		Playouts:       *playouts,
		Workers:        *workers,
		TempMoves:      6,
		Rounds:         *rounds,
		Seed:           *seed,
		BufferEpisodes: *buffer,
		Logf:           func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Printf("worker %s: %v, stopping after this round\n", *id, s)
		w.Stop()
	}()

	fmt.Printf("worker %s: %s, %d games x %d playouts -> %s\n", *id, *gameSpec, *nGames, *playouts, *learnerAddr)
	stats := w.Run()
	fmt.Printf("done: %d rounds, %d episodes (%d playouts), %d sent, %d dropped, %d reconnects, %d swaps, final v%d\n",
		stats.Rounds, stats.Episodes, stats.Playouts, stats.Sent, stats.Dropped, stats.Reconnects, stats.Swaps, stats.Version)
}
