package main

import (
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// workload is one named set of inputs. The serve workloads run cmd/serve's
// defaults (serial engine per session, ReuseTree, batch 8, 1 ms flush
// deadline, cache 65536) behind net/http on loopback; selfplay_dist runs
// cmd/learner and cmd/worker's wiring over the TCP transport.
type workload struct {
	name string
	why  string
	dist bool // selfplay_dist: learner + workers instead of a service
	// An ungated workload runs with the others and is compared by -compare,
	// but BENCHMARK.json does not list it: on a shared host its runs spread
	// further than the widest bound the contract allows (see README.md).
	ungated bool

	gameSpec string
	fullNet  bool // nn.GomokuConfig instead of nn.TinyConfig
	playouts int

	// serve_*
	users       int // closed-loop clients, one keep-alive connection each
	transpose   int // serve.Config.TransposeSize
	maxSessions int // serve.Config.MaxSessions (0 = default)
	warmupOps   int // requests (serve) or learner rounds (dist) before timing starts
}

var workloads = []workload{
	{
		name:     "serve_sat",
		why:      "8 users fill the batch of 8 on the full gomoku:9 net: CPU saturated in tensor/nn, cache write-mostly; inference wins must show here",
		gameSpec: "gomoku:9", fullNet: true, playouts: 100, users: 8, warmupOps: 40,
	},
	{
		name:     "serve_light",
		why:      "2 users never fill a batch: latency is playouts x (flush deadline + small forward), so queue wait, not kernels, does the blocking",
		gameSpec: "gomoku:9", fullNet: true, playouts: 100, users: 2, warmupOps: 16,
	},
	{
		name:     "serve_churn",
		why:      "tictactoe fully in the transposition table: no inference, so tree, sessions, LRU eviction, JSON and HTTP do all the work; bypass case",
		gameSpec: "tictactoe", playouts: 64, users: 8, transpose: 65536, maxSessions: 256, warmupOps: 8000,
	},
	{
		name: "selfplay_dist",
		why:  "learner + 2 workers over TCP: async local-tree search on a batch-1 server, wire, fsync'd replay, SGD, gate, checkpoint swap",
		dist: true, ungated: true, gameSpec: "gomoku:9", playouts: 64, warmupOps: 2,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) game() game.Game { return games.MustNew(w.gameSpec) }

// newNet builds the workload's network from the run seed.
func (w *workload) newNet(g game.Game, seed uint64) *nn.Network {
	c, h, wd := g.EncodedShape()
	if w.fullNet {
		return nn.MustNew(nn.GomokuConfig(c, h, wd, g.NumActions()), rng.New(seed))
	}
	return nn.MustNew(nn.TinyConfig(c, h, wd, g.NumActions()), rng.New(seed))
}
