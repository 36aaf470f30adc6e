// Command serve runs the networked play service: an HTTP/JSON move API
// (API.md) over a session manager that keeps one persistent warm search
// session per active game, multiplexing every game through one shared
// inference thread pool. Each move's search keeps as many evaluations in flight
// as the live load calls for (see internal/serve), so there is no per-session
// parallelism knob. Operational guidance — eviction and backpressure knobs,
// drain semantics, the /statsz field reference — lives in OPERATIONS.md.
//
// Usage:
//
//	serve [-addr :8080] [-game tictactoe] [-playouts 200] [-reuse]
//	      [-sessions 1024] [-idle-ttl 10m]
//	      [-max-outstanding 256] [-max-concurrent 0] [-retry-after 500ms]
//	      [-cache 65536] [-transpose off] [-kernel avx2]
//	      [-ckpt dir | -full-net] [-seed 1]
//
// On SIGINT/SIGTERM the server drains: new requests get 503, in-flight
// moves finish and are answered, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/serve"
	"github.com/parmcts/parmcts/internal/tensor"
	"github.com/parmcts/parmcts/internal/tree"
)

// A client gets readHeaderTimeout to send a request's headers and keeps an
// idle keep-alive connection for idleTimeout, so a slow or silent peer
// cannot hold a connection open indefinitely.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		gameSpec = games.Flag(flag.CommandLine, "tictactoe", "")
		playouts = mcts.PlayoutsFlag(flag.CommandLine, 200, "")
		reuse    = mcts.ReuseFlag(flag.CommandLine, true, ": retain the played subtree across a game's moves")

		sessions   = flag.Int("sessions", 1024, "session budget: creating a game beyond it evicts the least-recently-used session")
		idleTTL    = flag.Duration("idle-ttl", 10*time.Minute, "evict sessions idle longer than this (negative disables)")
		tombstones = flag.Int("tombstones", 4096, "evicted-game tombstone window: the last N evicted ids answer 410 Gone instead of 404")

		maxOutstanding = flag.Int("max-outstanding", 256, "inference backpressure bound (submitted, unanswered evaluations)")
		maxConcurrent  = flag.Int("max-concurrent", 0, "admission control: concurrent move searches before 429 (0 = max-outstanding)")
		retryAfter     = flag.Duration("retry-after", 500*time.Millisecond, "Retry-After hint on 429/503 responses")

		cacheSize = flag.Int("cache", 1<<16, "shared evaluation cache entries (0 = default, negative disables)")
		transpose = tree.TransposeFlag(flag.CommandLine, "off", "")

		ckptDir = flag.String("ckpt", "", "serve the latest network from this checkpoint store (cmd/train -ckpt)")
		fullNet = nn.FullNetFlag(flag.CommandLine, " instead of the tiny one (without -ckpt: a fresh network is served)")
		seed    = rng.SeedFlag(flag.CommandLine, " (fresh-network init and per-session search seeds)")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	g := games.ResolveFlag("serve", *gameSpec, "tictactoe")
	c, h, w := g.EncodedShape()

	// Model: latest checkpoint when -ckpt is given, else a fresh network.
	var net *nn.Network
	version := int64(1)
	if *ckptDir != "" {
		store, err := checkpoint.NewStore(*ckptDir)
		if err != nil {
			fail(err)
		}
		loaded, m, err := store.LoadLatest()
		if err != nil {
			fail(fmt.Errorf("checkpoint store %s: %w", store.Dir(), err))
		}
		if err := checkpoint.CheckGame(loaded, m.Game, g); err != nil {
			fail(fmt.Errorf("checkpoint store %s: %w (pass -game)", store.Dir(), err))
		}
		net = loaded
		if m.Version > 0 {
			version = m.Version
		}
		fmt.Printf("serving checkpoint version %d from %s\n", m.Version, store.Dir())
	} else {
		net = nn.MustNew(nn.ConfigFor(*fullNet, c, h, w, g.NumActions()), rng.New(*seed))
	}

	search := mcts.DefaultConfig()
	search.Playouts = *playouts
	search.ReuseTree = *reuse
	search.Seed = *seed

	svc := serve.NewService(serve.Config{
		Game:               g,
		GameSpec:           *gameSpec,
		Search:             search,
		MaxSessions:        *sessions,
		IdleTTL:            *idleTTL,
		TombstoneBudget:    *tombstones,
		MaxConcurrentMoves: *maxConcurrent,
		RetryAfter:         *retryAfter,
		MaxOutstanding:     *maxOutstanding,
		CacheSize:          *cacheSize,
		TransposeSize:      tree.ResolveTransposeFlag("serve", *transpose),
		Net:                net,
		InitialVersion:     version,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Printf("serve: %s on %s (playouts=%d reuse=%v sessions=%d max-outstanding=%d)\n",
		*gameSpec, *addr, *playouts, *reuse, *sessions, *maxOutstanding)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fail(err)
	case sig := <-sigc:
		fmt.Printf("serve: %v — draining\n", sig)
	}

	// Drain: stop admitting new work, let the HTTP layer finish answering
	// in-flight moves, then tear the sessions and inference service down.
	svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
	}
	svc.Close()
	st := svc.Stats()
	fmt.Printf("serve: drained cleanly (games=%d moves=%d evicted=%d rejected=%d)\n",
		st.SessionsCreated, st.MovesServed, st.SessionsEvicted, st.MovesRejected)
}
