package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parmcts/parmcts/internal/arena"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/trajstore"
)

// LearnerConfig assembles the learner process: the single owner of SGD,
// checkpoint commits and arena-gated promotion in a distributed run.
type LearnerConfig struct {
	// Game is the hosted workload; gate matches are played on it.
	Game game.Game
	// GameSpec names the workload (e.g. "gomoku:9"). Worker hellos carrying
	// a different spec are rejected, and checkpoint manifests record it.
	GameSpec string
	// Store is the checkpoint store. A non-empty store resumes the learner:
	// LoadLatest seeds the incumbent and version numbering continues. An
	// empty store is seeded from NewNet (committed as version 1).
	Store *checkpoint.Store
	// NewNet builds the seed network when Store is empty.
	NewNet func() *nn.Network
	// Replay is the in-memory SGD ring.
	Replay *train.Replay
	// Traj, when non-nil, is the durable replay store: every accepted
	// episode is committed there before its samples enter the ring, and a
	// restarted learner re-ingests the newest stored games. Storage errors
	// degrade it to read-only without stopping training.
	Traj *trajstore.Store
	// Augment expands accepted samples on ingest (nil = none). Workers ship
	// raw episodes; augmentation is learner-side, like the trajstore's
	// canonical-data design.
	Augment train.Augmenter
	// RoundGames is how many worker episodes make one generation round.
	RoundGames int
	// RoundTimeout bounds how long a round waits to fill AFTER its first
	// episode arrived (default 10s): a worker dying mid-round costs at most
	// one timeout, then the partial round trains. The wait for the FIRST
	// episode is unbounded (a learner with no workers idles, it does not
	// spin through empty rounds).
	RoundTimeout time.Duration
	// Loop carries the SGD/gating knobs (Rounds, GateEvery, SGDIterations,
	// BatchSize, LR, MinSamples, Seed...). StartVersion and Stop are owned
	// by the learner and overwritten.
	Loop train.LoopConfig
	// Gate configures the learner-local promotion gate (serial engines at
	// equal budgets — arena.GateCandidate).
	Gate arena.GateConfig
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// maxWorkerIDs bounds the worker IDs (from the wire) a learner keeps.
const maxWorkerIDs = 1 << 12

// LearnerStats counts wire-level traffic (all atomics; read via Stats).
type LearnerStats struct {
	// WorkersSeen counts the distinct worker IDs whose hellos were accepted
	// (a worker that redials counts once); WorkersLive is the current number
	// of connections. IDs are taken to be unique per worker: the default
	// -id, worker-<pid>, is unique only within one host, so workers on two
	// hosts that share a PID count as one. Past maxWorkerIDs distinct IDs,
	// each new one counts but is not kept, so its redials count again.
	WorkersSeen, WorkersLive int64
	// HellosRejected counts mismatched-game or malformed hellos.
	HellosRejected int64
	// Episodes counts accepted (checksum-verified) episodes; Rejected
	// counts frames that failed re-validation or decoding.
	Episodes, Rejected int64
	// Broadcasts counts checkpoint fan-outs (per promotion, not per worker).
	Broadcasts int64
}

type learnerStats struct {
	workersSeen, workersLive, hellosRejected atomic.Int64
	episodes, rejected, broadcasts           atomic.Int64
}

// episodeBufferRounds is how many rounds of verified episodes may wait between
// the connection handlers and the round assembler.
const episodeBufferRounds = 4

// MaxReadAheadRounds is K, the most rounds generation can run ahead of the
// round SGD is consuming on the in-memory fabric. train.Loop holds two finished
// rounds (its one-slot channel and the one Generate is handing over), the
// learner buffers episodeBufferRounds more, a handler holds one episode (at
// most one round), the pipe none — a net.Pipe is unbuffered, and the handler's
// reader never reads past the frame it is decoding — and then a worker's Send
// blocks with the round it has just played. Over TCP the kernel's socket
// buffers add bytes, not rounds, on top. It is a consequence of those sizes,
// not a knob.
const MaxReadAheadRounds = 2 + episodeBufferRounds + 1 + 1

// episodeIn is one verified episode crossing from a connection handler to
// the round assembler.
type episodeIn struct {
	version int64
	ep      trajstore.Episode
}

// currentCkpt is the snapshot the learner fans out: the committed manifest
// plus the exact weight bytes its checksum covers.
type currentCkpt struct {
	man checkpoint.Manifest
	raw []byte
}

// Learner is the training-owning end of the distributed split. It
// implements train.Generator (rounds assembled from worker episode
// streams), train.Gate (local arena match) and train.Promoter (checkpoint
// commit + fan-out), so train.Loop runs unmodified on top of it.
type Learner struct {
	cfg LearnerConfig
	lis Listener

	net          *nn.Network
	startVersion int64
	baseStep     int64
	baseRounds   int
	baseSamples  int

	episodes chan episodeIn
	stop     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	conns   map[Conn]struct{}
	workers map[string]struct{} // the first maxWorkerIDs worker IDs accepted
	cur     currentCkpt

	stats learnerStats
}

// NewLearner resumes (or seeds) the model state and binds the listener.
// Resumption is two-part: the MODEL comes from the checkpoint store's latest
// committed version (refused if it was trained on another game), the DATA
// from re-ingesting the durable replay store's newest games into the ring.
func NewLearner(lis Listener, cfg LearnerConfig) (*Learner, error) {
	if lis == nil || cfg.Game == nil || cfg.Store == nil || cfg.Replay == nil {
		return nil, errors.New("dist: learner needs a listener, game, checkpoint store and replay buffer")
	}
	if cfg.RoundGames < 1 {
		cfg.RoundGames = 8
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	l := &Learner{
		cfg:      cfg,
		lis:      lis,
		episodes: make(chan episodeIn, episodeBufferRounds*cfg.RoundGames),
		stop:     make(chan struct{}),
		conns:    make(map[Conn]struct{}),
		workers:  make(map[string]struct{}),
	}

	// Model half of the resume.
	var man checkpoint.Manifest
	switch net, m, err := cfg.Store.LoadLatest(); {
	case err == nil:
		if err := checkpoint.CheckGame(net, m.Game, cfg.Game); err != nil {
			return nil, fmt.Errorf("dist: checkpoint store %s cannot resume %q: %w; use a fresh checkpoint directory",
				cfg.Store.Dir(), cfg.GameSpec, err)
		}
		l.net, man = net, m
		l.baseStep, l.baseRounds, l.baseSamples = m.Step, m.Rounds, m.Samples
		cfg.Logf("learner: resuming from checkpoint version %d (step %d)", m.Version, m.Step)
	case errors.Is(err, checkpoint.ErrEmpty):
		if cfg.NewNet == nil {
			return nil, errors.New("dist: empty checkpoint store and no NewNet seed factory")
		}
		seeded, serr := cfg.Store.Save(cfg.NewNet(), checkpoint.Manifest{
			Version: 1, Game: cfg.GameSpec, Note: "seed network",
		})
		if serr != nil {
			return nil, serr
		}
		net2, m2, lerr := cfg.Store.LoadVersion(seeded.Version)
		if lerr != nil {
			return nil, lerr
		}
		l.net, man = net2, m2
	default:
		return nil, err
	}
	l.startVersion = man.Version
	if err := l.setCurrent(man, l.net); err != nil {
		return nil, err
	}

	if cfg.Traj != nil {
		if rec := cfg.Traj.Recovery(); rec != (trajstore.RecoveryReport{}) {
			cfg.Logf("learner: replay store recovery: %d torn bytes truncated, %d segments adopted, %d dropped, manifest rebuilt=%v",
				rec.TornBytes, rec.AdoptedSegments, rec.DroppedSegments, rec.ManifestRebuilt)
		}
	}
	// Data half of the resume: the newest stored games (enough raw samples to
	// cover the ring), oldest first so ring eviction keeps the most recent.
	if cfg.Traj != nil && cfg.Traj.Games() > 0 {
		start, raw := cfg.Traj.Games(), 0
		for start > 0 && raw < cfg.Replay.Cap() {
			ep, err := cfg.Traj.Get(start - 1)
			if err != nil {
				break
			}
			raw += len(ep.Samples)
			start--
		}
		restored := 0
		for i := start; i < cfg.Traj.Games(); i++ {
			ep, err := cfg.Traj.Get(i)
			if err != nil {
				cfg.Logf("learner: replay restore: %v", err)
				break
			}
			cfg.Replay.Ingest(ep.Samples, cfg.Augment)
			restored++
		}
		cfg.Logf("learner: replay restored: %d games (ring fill %d)", restored, cfg.Replay.Len())
	}
	return l, nil
}

// setCurrent records the fan-out snapshot, verifying that re-encoding the
// network reproduces the manifest's checksum (it must — the encoding is
// deterministic — and a mismatch means the wrong network was paired with
// the manifest).
func (l *Learner) setCurrent(man checkpoint.Manifest, net *nn.Network) error {
	raw, sum, err := checkpoint.EncodeNetwork(net)
	if err != nil {
		return err
	}
	if sum != man.Checksum {
		return fmt.Errorf("dist: version %d re-encode checksum %s does not match manifest %s", man.Version, sum, man.Checksum)
	}
	l.mu.Lock()
	l.cur = currentCkpt{man: man, raw: raw}
	l.mu.Unlock()
	return nil
}

// Stats snapshots the wire counters.
func (l *Learner) Stats() LearnerStats {
	return LearnerStats{
		WorkersSeen:    l.stats.workersSeen.Load(),
		WorkersLive:    l.stats.workersLive.Load(),
		HellosRejected: l.stats.hellosRejected.Load(),
		Episodes:       l.stats.episodes.Load(),
		Rejected:       l.stats.rejected.Load(),
		Broadcasts:     l.stats.broadcasts.Load(),
	}
}

// Version returns the version the learner currently fans out.
func (l *Learner) Version() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur.man.Version
}

// Stop ends the run: the listener closes first, so a worker whose handler
// sees the stop cannot redial into the ending run; then the loop drains
// (train.LoopConfig.Stop) and every worker connection closes. Idempotent.
func (l *Learner) Stop() {
	l.stopOnce.Do(func() {
		l.lis.Close()
		close(l.stop)
		l.mu.Lock()
		for c := range l.conns {
			c.Close()
		}
		l.mu.Unlock()
	})
}

// Run serves workers and drives the training loop to completion (either
// cfg.Loop.Rounds rounds or Stop). The returned report is train.Loop's.
func (l *Learner) Run(onRound func(train.LoopRoundStats)) train.LoopReport {
	go l.acceptLoop()

	incumbent := l.net.Clone()
	loopCfg := l.cfg.Loop
	loopCfg.StartVersion = l.startVersion
	loopCfg.Stop = l.stop
	loop := train.NewLoop(l.net, incumbent, l.cfg.Replay, l, localGate{l}, l, loopCfg)
	report := loop.Run(onRound)
	l.Stop()
	return report
}

// acceptLoop hands each worker connection to its own handler. Accept
// errors (listener closed) end the loop.
func (l *Learner) acceptLoop() {
	for {
		c, err := l.lis.Accept()
		if err != nil {
			return
		}
		go l.handle(c)
	}
}

// handle owns one worker connection: validate the hello, send the current
// checkpoint, then stream episodes until the connection dies. Every frame
// is re-validated (checksum) before it can reach the replay path; a
// protocol error closes the connection and lets the worker redial.
func (l *Learner) handle(c Conn) {
	defer c.Close()

	first, err := c.Recv()
	if err != nil {
		return
	}
	hello, err := decodeHello(first)
	if err != nil {
		l.stats.hellosRejected.Add(1)
		l.cfg.Logf("learner: rejecting connection: %v", err)
		return
	}
	if l.cfg.GameSpec != "" && hello.GameSpec != "" && hello.GameSpec != l.cfg.GameSpec {
		l.stats.hellosRejected.Add(1)
		l.cfg.Logf("learner: rejecting worker %s: game %q, serving %q", hello.WorkerID, hello.GameSpec, l.cfg.GameSpec)
		return
	}

	// Always answer with the current checkpoint: a worker that already has
	// it ignores the swap, a fresh or stale one catches up immediately.
	l.mu.Lock()
	cur := l.cur
	l.conns[c] = struct{}{}
	if _, seen := l.workers[hello.WorkerID]; !seen {
		if len(l.workers) < maxWorkerIDs {
			l.workers[hello.WorkerID] = struct{}{}
		}
		l.stats.workersSeen.Add(1)
	}
	l.mu.Unlock()
	l.stats.workersLive.Add(1)
	defer func() {
		l.mu.Lock()
		delete(l.conns, c)
		l.mu.Unlock()
		l.stats.workersLive.Add(-1)
	}()
	msg, err := encodeCheckpoint(cur.man, cur.raw)
	if err != nil {
		return
	}
	if err := c.Send(msg); err != nil {
		return
	}
	l.cfg.Logf("learner: worker %s connected (fleet %d, has v%d, serving v%d)",
		hello.WorkerID, hello.Games, hello.HaveVersion, cur.man.Version)

	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch m.Type {
		case msgEpisode:
			version, ep, derr := decodeEpisode(m)
			if derr != nil {
				// A corrupted frame is dropped, not fatal: the transport kept
				// framing, so later episodes are still intact.
				l.stats.rejected.Add(1)
				l.cfg.Logf("learner: dropping episode from %s: %v", hello.WorkerID, derr)
				continue
			}
			// Counted before the hand-off: the round (and Run) may finish on
			// this episode before the handler runs again.
			l.stats.episodes.Add(1)
			select {
			case l.episodes <- episodeIn{version: version, ep: ep}:
			case <-l.stop:
				l.stats.episodes.Add(-1)
				return
			}
		default:
			l.stats.rejected.Add(1)
			l.cfg.Logf("learner: worker %s sent unexpected message type %d, closing", hello.WorkerID, m.Type)
			return
		}
	}
}

// Generate implements train.Generator: one generation round is the next
// RoundGames worker episodes. The wait for the first episode is unbounded
// (watching Stop); after it, RoundTimeout caps the fill so a dead worker
// delays the loop by at most one timeout before the partial round trains.
func (l *Learner) Generate() train.GenRound {
	var round train.GenRound
	start := time.Now()

	var timeout <-chan time.Time
	for round.Games < l.cfg.RoundGames {
		select {
		case in := <-l.episodes:
			l.accept(in, &round)
			if timeout == nil {
				t := time.NewTimer(l.cfg.RoundTimeout)
				defer t.Stop()
				timeout = t.C
			}
		case <-timeout:
			round.Elapsed = time.Since(start)
			return round
		case <-l.stop:
			round.Elapsed = time.Since(start)
			return round
		}
	}
	round.Elapsed = time.Since(start)
	return round
}

// accept commits one episode durably (if a trajstore is attached) before its
// samples enter the ring. A storage error never stops training: the store
// degrades to read-only, gets logged once, and the run continues on the ring.
func (l *Learner) accept(in episodeIn, round *train.GenRound) {
	if l.cfg.Traj != nil && !l.cfg.Traj.ReadOnly() {
		if err := l.cfg.Traj.Append(in.ep); err != nil {
			l.cfg.Logf("learner: replay store degraded to read-only, continuing on the in-memory ring: %v", err)
		}
	}
	l.cfg.Replay.Ingest(in.ep.Samples, l.cfg.Augment)
	round.Games++
	round.Moves += in.ep.Moves
	round.Samples += len(in.ep.Samples)
}

// localGate adapts arena.GateCandidate to train.Gate: the learner holds
// both networks in-process, so gate matches run on learner-local serial
// engines at equal budgets — no worker involvement, generation continues
// remotely while the gate plays.
type localGate struct{ l *Learner }

func (g localGate) Gate(candidate *nn.Network, candidateVersion int64, incumbent *nn.Network, incumbentVersion int64) train.GateResult {
	promote, res := arena.GateCandidate(g.l.cfg.Game, candidate, incumbent, g.l.cfg.Gate)
	return train.GateResult{
		Promote:       promote,
		Score:         res.Score(),
		Games:         res.Games,
		WinsCandidate: res.WinsA,
		WinsIncumbent: res.WinsB,
		Draws:         res.Draws,
		Elapsed:       res.Duration,
	}
}

// Promote implements train.Promoter: checkpoint the accepted candidate
// (durability first — the commit is the promotion), then fan the snapshot
// out to every connected worker. A send error only costs that worker the
// push; it receives the same checkpoint on its next reconnect hello.
func (l *Learner) Promote(candidate *nn.Network, p train.Promotion) error {
	man, err := l.cfg.Store.Save(candidate, checkpoint.Manifest{
		Version:   p.Version,
		Step:      l.baseStep + p.Step,
		Rounds:    l.baseRounds + p.Round + 1,
		Samples:   l.baseSamples + p.Samples,
		GateScore: p.Gate.Score,
		Game:      l.cfg.GameSpec,
		Note:      "promoted by arena gate",
	})
	if err != nil {
		return err
	}
	if err := l.setCurrent(man, candidate); err != nil {
		return err
	}
	l.broadcast()
	l.cfg.Logf("learner: promoted v%d (score %.2f), fanned out to %d workers", man.Version, p.Gate.Score, l.stats.workersLive.Load())
	return nil
}

// broadcast pushes the current checkpoint to every live connection.
func (l *Learner) broadcast() {
	l.mu.Lock()
	cur := l.cur
	conns := make([]Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	msg, err := encodeCheckpoint(cur.man, cur.raw)
	if err != nil {
		return
	}
	for _, c := range conns {
		// Best effort: a dead connection's handler is already unwinding,
		// and the worker re-hellos into the current version anyway.
		_ = c.Send(msg)
	}
	l.stats.broadcasts.Add(1)
}
