package dist

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parmcts/parmcts/internal/adaptive"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/selfplay"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/trajstore"
	"github.com/parmcts/parmcts/internal/tree"
)

// WorkerConfig assembles one self-play worker: a G-game fleet over a
// local shared inference service, streaming finished episodes to the
// learner and swapping in promoted checkpoints at round barriers.
type WorkerConfig struct {
	// ID names the worker in hellos and learner logs.
	ID string
	// Game is the workload; GameSpec is its name, validated by the learner.
	Game     game.Game
	GameSpec string
	// Dial opens a connection to the learner; the reconnect loop calls it
	// on every attempt (TCPDialer or Network.Dialer).
	Dial Dialer
	// Games is the fleet size G (concurrent self-play games).
	Games int
	// Playouts is the per-move search budget.
	Playouts int
	// Workers is the inference service's thread count and each engine's
	// in-flight bound.
	Workers int
	// ReuseTree runs every game as a persistent search session: the played
	// child's subtree is kept across moves (mcts.Config.ReuseTree).
	ReuseTree bool
	// TransposeSize > 0 gives the fleet one shared transposition table with
	// that entry budget: the G searches converge on shared statistics for
	// transposed positions, and later games are served openings discovered by
	// earlier ones. It is keyed by position only, so it is cleared at every
	// swap barrier — where no game is in flight — and a search never loads an
	// evaluation made by another model version.
	TransposeSize int
	// TempMoves is the exploration temperature horizon per game.
	TempMoves int
	// Rounds bounds the run (0 = until Stop).
	Rounds int
	// Seed drives the fleet's move sampling, mixed with ID: workers given one
	// Seed and different IDs play different games.
	Seed uint64
	// BufferEpisodes bounds the outbox while disconnected (default 256): the
	// worker waits for a learner rather than play a round it cannot buffer;
	// past a buffer smaller than a round it drops (and counts) the OLDEST.
	BufferEpisodes int
	// ReconnectMin/ReconnectMax bound the exponential redial backoff
	// (defaults 50ms / 2s).
	ReconnectMin, ReconnectMax time.Duration
	// NewEvaluator builds the leaf evaluator for a received network
	// (nil = evaluate.NewNN). cmd/train wraps each network in its own
	// evaluate.Cached here (a cache per network is version-scoped by
	// construction); benchmarks inject latency-modeled evaluators to measure
	// the distributed split under device-like latency.
	NewEvaluator func(net *nn.Network) evaluate.Evaluator
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// WorkerStats counts a worker run.
type WorkerStats struct {
	// Rounds and Episodes count generation work; Playouts is the summed
	// playout count across all episodes (the scaling metric).
	Rounds, Episodes int
	Playouts         int64
	// Sent counts episodes delivered to the learner; Dropped counts
	// episodes evicted from a full outbox while disconnected.
	Sent, Dropped int
	// Reconnects counts successful (re)connections after the first.
	Reconnects int
	// Swaps counts checkpoint swaps applied at round barriers.
	Swaps int
	// Version is the model version serving when the run ended.
	Version int64
}

// pendingCkpt is the newest checkpoint received and not yet applied;
// latest wins (a worker that missed a promotion while searching applies
// only the final one at the next barrier).
type pendingCkpt struct {
	man checkpoint.Manifest
	net *nn.Network
}

// Worker runs the generation half of the distributed split. It has no
// SGD, no replay ring and no gate: it plays rounds, ships episodes, and
// serves whatever model the learner last promoted — applying swaps only
// at round barriers, where no game is in flight, so every game finishes on
// the version it started with.
type Worker struct {
	cfg   WorkerConfig
	trans *tree.TransTable // fleet-shared, nil unless cfg.TransposeSize > 0

	stop     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	conn    Conn // live connection, nil while disconnected
	pending *pendingCkpt
	ready   chan struct{} // closed once the first checkpoint arrives
	outbox  []Msg

	reconnects atomic.Int64
	dropped    atomic.Int64
	sent       atomic.Int64
}

// NewWorker validates the config.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Game == nil || cfg.Dial == nil {
		return nil, errors.New("dist: worker needs a game and a dialer")
	}
	if cfg.Games < 1 {
		cfg.Games = 4
	}
	if cfg.Playouts < 1 {
		cfg.Playouts = 50
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.BufferEpisodes < 1 {
		cfg.BufferEpisodes = 256
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 50 * time.Millisecond
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = 2 * time.Second
	}
	if cfg.NewEvaluator == nil {
		cfg.NewEvaluator = func(net *nn.Network) evaluate.Evaluator { return evaluate.NewNN(net) }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ID == "" {
		cfg.ID = "worker"
	}
	w := &Worker{
		cfg:   cfg,
		stop:  make(chan struct{}),
		ready: make(chan struct{}),
	}
	if cfg.TransposeSize > 0 {
		w.trans = tree.NewTransTable(cfg.TransposeSize)
	}
	return w, nil
}

// Stop ends the run after the in-flight round's barrier. Idempotent.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() {
		close(w.stop)
		w.mu.Lock()
		if w.conn != nil {
			w.conn.Close()
		}
		w.mu.Unlock()
	})
}

// workerSeed mixes a worker's ID into its Seed (see WorkerConfig.Seed).
func workerSeed(seed uint64, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return seed ^ h.Sum64()
}

// Run drives the worker until Rounds rounds have been played or Stop is
// called. It blocks waiting for the first checkpoint (a worker cannot play
// without a model), then keeps playing through disconnections while it can
// buffer a round, redialing with backoff in the background.
func (w *Worker) Run() WorkerStats {
	go w.connectLoop()

	// No model, no fleet: wait for the learner's first checkpoint.
	select {
	case <-w.ready:
	case <-w.stop:
		return WorkerStats{}
	}
	w.mu.Lock()
	first := w.pending
	w.pending = nil
	w.mu.Unlock()

	// Build the fleet around the received model: one shared inference
	// service, one engine per game.
	version := first.man.Version
	mkBackend := func(net *nn.Network) evaluate.Backend {
		return &evaluate.EvaluatorBackend{Eval: w.cfg.NewEvaluator(net), Workers: w.cfg.Workers}
	}
	seed := workerSeed(w.cfg.Seed, w.cfg.ID)
	cfgs := make([]mcts.Config, w.cfg.Games)
	for i := range cfgs {
		mc := mcts.DefaultConfig()
		mc.Playouts = w.cfg.Playouts
		mc.DirichletAlpha = 0.3
		mc.NoiseFrac = 0.25
		mc.Seed = seed + uint64(i)*7919
		mc.ReuseTree = w.cfg.ReuseTree
		mc.TransposeTable = w.trans
		cfgs[i] = mc
	}
	fleet := adaptive.NewLocalFleet(mkBackend(first.net), w.cfg.Workers, cfgs)
	defer fleet.Close()

	var stats WorkerStats
	driver := selfplay.NewDriver(w.cfg.Game, fleet.Engines, nil, nil, selfplay.Config{
		TempMoves: w.cfg.TempMoves,
		Seed:      seed,
		// Stream every finished game: encode it as a wire frame at the
		// round's ingest barrier (driver goroutine, deterministic order)
		// into the bounded outbox; the flush below ships it.
		OnEpisode: func(tenant int, ep *train.EpisodeResult) {
			stats.Episodes++
			stats.Playouts += int64(ep.Search.Playouts)
			w.enqueue(encodeEpisode(version, trajstore.Episode{
				Moves:   ep.Moves,
				Winner:  ep.Winner,
				Samples: ep.Samples,
			}))
		},
	})

	w.cfg.Logf("worker %s: fleet of %d games up on v%d", w.cfg.ID, w.cfg.Games, version)
	for round := 0; w.cfg.Rounds == 0 || round < w.cfg.Rounds; round++ {
		select {
		case <-w.stop:
			stats.Version = version
			w.fillStats(&stats)
			return stats
		default:
		}

		// Round barrier: apply the newest pending checkpoint. No game is in
		// flight between rounds, so no game sees two networks.
		w.mu.Lock()
		p := w.pending
		w.pending = nil
		w.mu.Unlock()
		if p != nil && p.man.Version > version {
			old := version
			version = p.man.Version
			fleet.Server.SwapBackend(mkBackend(p.net))
			if w.trans != nil {
				w.trans.Reset()
			}
			stats.Swaps++
			w.cfg.Logf("worker %s: swapped v%d -> v%d at round %d", w.cfg.ID, old, version, round)
		}

		driver.PlayRound()
		stats.Rounds++
		w.flush()
	}
	stats.Version = version
	w.fillStats(&stats)
	return stats
}

// fillStats completes s when the run ends and, with a shared table, reports
// what it holds.
func (w *Worker) fillStats(s *WorkerStats) {
	s.Sent = int(w.sent.Load())
	s.Dropped = int(w.dropped.Load())
	s.Reconnects = int(w.reconnects.Load())
	if w.trans != nil {
		ts := w.trans.Stats()
		w.cfg.Logf("worker %s: transposition table: %d entries, hit rate %.2f (%d hits, %d collisions, %d evictions since the last swap)",
			w.cfg.ID, ts.Entries, ts.HitRate(), ts.Hits, ts.Collisions, ts.Evictions)
	}
}

// enqueue buffers one encoded episode, evicting the oldest when full.
func (w *Worker) enqueue(m Msg) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.outbox) >= w.cfg.BufferEpisodes {
		w.outbox = w.outbox[1:]
		w.dropped.Add(1)
	}
	w.outbox = append(w.outbox, m)
}

// flush ships buffered episodes over the live connection, oldest first, at
// the round barrier. Disconnected, it waits for a redial (or Stop) while the
// outbox cannot take another round, so the worker plays none only to drop it.
func (w *Worker) flush() {
	for {
		w.mu.Lock()
		c, n := w.conn, len(w.outbox)
		if n == 0 || c == nil {
			w.mu.Unlock()
			if n == 0 || n+w.cfg.Games <= w.cfg.BufferEpisodes {
				return
			}
			select {
			case <-time.After(w.cfg.ReconnectMin):
			case <-w.stop:
				return
			}
			continue
		}
		m := w.outbox[0]
		w.mu.Unlock()

		if err := c.Send(m); err != nil {
			w.dropConn(c)
			continue
		}
		w.sent.Add(1)
		w.mu.Lock()
		w.outbox = w.outbox[1:]
		w.mu.Unlock()
	}
}

// dropConn clears (and closes) a failed connection; the connect loop's
// reader notices and redials.
func (w *Worker) dropConn(c Conn) {
	c.Close()
	w.mu.Lock()
	if w.conn == c {
		w.conn = nil
	}
	w.mu.Unlock()
}

// connectLoop maintains the learner link for the life of the worker: dial
// with exponential backoff, hello, then read checkpoints until the
// connection dies, and start over. It never touches the fleet directly —
// received checkpoints land in the pending slot for the round barrier.
func (w *Worker) connectLoop() {
	backoff := w.cfg.ReconnectMin
	connected := false
	for {
		select {
		case <-w.stop:
			return
		default:
		}

		c, err := w.cfg.Dial()
		if err != nil {
			select {
			case <-time.After(backoff):
			case <-w.stop:
				return
			}
			backoff *= 2
			if backoff > w.cfg.ReconnectMax {
				backoff = w.cfg.ReconnectMax
			}
			continue
		}
		backoff = w.cfg.ReconnectMin

		w.mu.Lock()
		var have int64
		if w.pending != nil {
			have = w.pending.man.Version
		}
		w.mu.Unlock()
		hello, herr := encodeHello(Hello{
			WorkerID:    w.cfg.ID,
			GameSpec:    w.cfg.GameSpec,
			Games:       w.cfg.Games,
			HaveVersion: have,
		})
		if herr != nil || c.Send(hello) != nil {
			c.Close()
			continue
		}

		w.mu.Lock()
		w.conn = c
		w.mu.Unlock()
		if connected {
			w.reconnects.Add(1)
			w.cfg.Logf("worker %s: reconnected to learner", w.cfg.ID)
		}
		connected = true

		w.readLoop(c)
		w.dropConn(c)

		select {
		case <-w.stop:
			return
		default:
		}
	}
}

// readLoop consumes learner messages on one connection until it errors.
// Checkpoints are fully decoded AND checksum-verified here, off the search
// path; only a validated network reaches the pending slot.
func (w *Worker) readLoop(c Conn) {
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		if m.Type != msgCheckpoint {
			w.cfg.Logf("worker %s: ignoring unexpected message type %d", w.cfg.ID, m.Type)
			continue
		}
		man, net, err := decodeCheckpoint(m)
		if err != nil {
			// A corrupt checkpoint must never serve; drop it and keep the
			// current model. The learner re-sends on the next promotion or
			// reconnect.
			w.cfg.Logf("worker %s: rejecting checkpoint: %v", w.cfg.ID, err)
			continue
		}
		w.mu.Lock()
		if w.pending == nil || man.Version > w.pending.man.Version {
			w.pending = &pendingCkpt{man: man, net: net}
		}
		w.mu.Unlock()
		select {
		case <-w.ready:
		default:
			close(w.ready)
		}
	}
}
