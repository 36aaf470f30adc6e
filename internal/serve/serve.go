// Package serve is the networked play service: the first layer of the
// stack that faces an actual user instead of another goroutine. It exposes
// the move API of API.md (POST /v1/game/new, POST /v1/game/{id}/move,
// GET /v1/game/{id}, /healthz, /statsz) over a session manager that owns
// one persistent warm mcts session per active game — tree reuse across a
// user's moves via Engine.Advance — with LRU + idle-TTL eviction under a
// configurable session budget, every tenant multiplexed through ONE
// evaluate.Server (the inference thread pool the self-play fleet runs: one
// evaluation per launch, on one core's persistent launcher), one shared
// transposition table, admission control surfaced as 429 + Retry-After when
// the MaxOutstanding backpressure bound is reached, and graceful drain on
// shutdown. A process serves one model version for its lifetime
// (Config.InitialVersion).
//
// Every session searches with the local-tree engine (mcts.Local, Algorithm
// 3), and each search sizes its own in-flight budget from the live load
// (inFlight): the searches in flight together keep about evalsInFlight
// evaluations queued for the pool's cores.
//
// See OPERATIONS.md for the operator surface and cmd/serve for the binary;
// the load client that drives a running server is in this package's tests.
package serve

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/tree"
)

// Typed request-outcome errors; the HTTP layer maps each to a status code
// (API.md documents the wire contract).
var (
	// ErrNotFound: the game id was never issued by this server.
	ErrNotFound = errors.New("serve: no such game")
	// ErrGone: the game id was valid but its session has been evicted
	// (budget or idle TTL). The client must start a new game.
	ErrGone = errors.New("serve: game session evicted")
	// ErrSaturated: admission control rejected the move — the service is at
	// its concurrent-search/backpressure bound. Retry after a backoff.
	ErrSaturated = errors.New("serve: service saturated")
	// ErrDraining: the service is shutting down and accepts no new work.
	ErrDraining = errors.New("serve: service draining")
	// ErrGameOver: the game already reached a terminal state.
	ErrGameOver = errors.New("serve: game is over")
	// ErrIllegalMove: the submitted action is not legal in the current
	// position (or is out of range).
	ErrIllegalMove = errors.New("serve: illegal move")
	// ErrWrongGame: the request named a different game than this server hosts.
	ErrWrongGame = errors.New("serve: server hosts a different game")
)

// Config tunes a Service. Zero values get serving-appropriate defaults.
type Config struct {
	// Game is the hosted scenario (required). One server hosts one game
	// spec; a /v1/game/new naming a different one is rejected.
	Game game.Game
	// GameSpec is the registry spec echoed on the wire (e.g. "gomoku:9") so
	// clients can reconstruct the environment. Defaults to Game.Name().
	GameSpec string

	// Search is the per-session search configuration. ReuseTree should be
	// on for serving (it is the point of persistent sessions); cmd/serve
	// defaults it on. Seed is split per session.
	Search mcts.Config

	// MaxSessions is the session budget: creating a game beyond it evicts
	// the least-recently-used session (default 1024). A live game holds a
	// tree arena of 72 bytes × SuggestCapacity(Playouts, fanout) nodes; a
	// finished one gives its arena back (the next game reuses it) and keeps
	// only its state.
	MaxSessions int
	// IdleTTL evicts sessions idle longer than this (default 10m; negative
	// disables TTL eviction, leaving only the budget).
	IdleTTL time.Duration

	// MaxConcurrentMoves bounds concurrently searching moves (admission
	// control). Excess moves are rejected with ErrSaturated rather than
	// queued, so the client sees 429 + Retry-After instead of unbounded
	// latency. Default: MaxOutstanding — at that load every search keeps
	// one evaluation in flight, which the backpressure bound holds.
	MaxConcurrentMoves int
	// RetryAfter is the backoff hint attached to saturation rejections
	// (default 500ms).
	RetryAfter time.Duration

	// MaxOutstanding is the backpressure bound (default 256) of the shared
	// evaluate.Server, an inference thread pool: every evaluation launches
	// alone on one of GOMAXPROCS persistent launchers, and at most
	// MaxOutstanding are submitted and unanswered at once.
	MaxOutstanding int

	// CacheSize, when positive, shares one evaluation cache across all
	// sessions (entries; default 1<<16, negative disables).
	CacheSize int
	// TransposeSize, when positive, gives the service one transposition
	// table of that many entries, shared by every session (default off).
	TransposeSize int

	// TombstoneBudget bounds the 410-Gone tombstone window: the ids of the
	// last N evicted sessions keep answering 410 instead of 404 (default
	// 4096). Only genuine evictions consume the budget — saturation-rejected
	// creates are rolled back without a tombstone, so a client hammering a
	// saturated server cannot flush real evictions out of the window.
	TombstoneBudget int

	// Net is the initial serving model (required unless NewEvaluator is
	// set and never touches its net argument).
	Net *nn.Network
	// InitialVersion is the model version Net serves as (default 1); every
	// snapshot and /statsz report it.
	InitialVersion int64
	// NewEvaluator builds the synchronous evaluator for the served model,
	// once, at NewService (test seam; default evaluate.NewNN(net)). The
	// result is wrapped in the shared evaluation cache when CacheSize > 0.
	NewEvaluator func(version int64, net *nn.Network) evaluate.Evaluator
}

func (c *Config) setDefaults() {
	if c.Game == nil {
		panic("serve: Config.Game is required")
	}
	if c.GameSpec == "" {
		c.GameSpec = c.Game.Name()
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 1024
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 10 * time.Minute
	}
	if c.MaxOutstanding < 1 {
		c.MaxOutstanding = 256
	}
	if c.MaxConcurrentMoves < 1 {
		c.MaxConcurrentMoves = c.MaxOutstanding
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 500 * time.Millisecond
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1 << 16
	}
	if c.TombstoneBudget < 1 {
		c.TombstoneBudget = 4096
	}
	if c.InitialVersion <= 0 {
		c.InitialVersion = 1
	}
	if c.NewEvaluator == nil {
		c.NewEvaluator = func(_ int64, net *nn.Network) evaluate.Evaluator {
			return evaluate.NewNN(net)
		}
	}
}

// Service is the networked play service. Construct with NewService, mount
// Handler() on an HTTP server, and Close() on shutdown (after the HTTP
// server has drained its in-flight requests).
type Service struct {
	cfg   Config
	game  game.Game
	srv   *evaluate.Server
	cache *evaluate.Cached
	admit chan struct{}
	start time.Time

	mu       sync.Mutex
	sessions map[string]*gameSession
	lru      *list.List // front = most recently used
	// evicted holds bounded tombstones of evicted/completed-and-dropped
	// session ids so a client polling a dead game gets 410 Gone instead of
	// an indistinguishable 404. evictedRing is the fixed-size order window
	// (head = next slot to overwrite): a ring instead of a re-sliced
	// append buffer, so long-uptime eviction churn never reallocates or
	// copies the window.
	evicted     map[string]struct{}
	evictedRing []string
	evictedHead int
	// tt is the shared transposition table handed to every session (nil
	// when TransposeSize is off).
	tt          *tree.TransTable
	draining    bool
	seedCounter uint64

	created   atomic.Int64
	evictedN  atomic.Int64
	completed atomic.Int64
	moves     atomic.Int64
	rejected  atomic.Int64
	// searching counts engine searches in flight, the load inFlight reads.
	searching  atomic.Int64
	reusedVis  atomic.Int64
	playoutsN  atomic.Int64
	evalsN     atomic.Int64
	transHitsN atomic.Int64
	// arenas counts sessions holding a search engine (a tree arena).
	arenas atomic.Int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewService builds the service: one evaluate.Server multiplexing every
// session over Config.Net, and the idle-eviction janitor running.
func NewService(cfg Config) *Service {
	cfg.setDefaults()
	s := &Service{
		cfg:         cfg,
		game:        cfg.Game,
		admit:       make(chan struct{}, cfg.MaxConcurrentMoves),
		start:       time.Now(),
		sessions:    make(map[string]*gameSession),
		lru:         list.New(),
		evicted:     make(map[string]struct{}),
		evictedRing: make([]string, cfg.TombstoneBudget),
	}
	if cfg.TransposeSize > 0 {
		s.tt = tree.NewTransTable(cfg.TransposeSize)
	}
	eval := cfg.NewEvaluator(cfg.InitialVersion, cfg.Net)
	if cfg.CacheSize > 0 {
		s.cache = evaluate.NewCachedSharded(eval, cfg.CacheSize, 16)
		eval = s.cache.View(cfg.InitialVersion, eval)
	}
	s.srv = evaluate.NewServer(&evaluate.EvaluatorBackend{Eval: eval}, evaluate.ServerConfig{
		Batch:          1,
		MaxOutstanding: cfg.MaxOutstanding,
		LaunchWorkers:  runtime.GOMAXPROCS(0),
	})
	if cfg.IdleTTL > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s
}

// newID mints a session id: 12 random hex characters.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// NewGame creates a session. engineStarts chooses which side the engine
// plays: false (the default) seats the engine as the second mover, so the
// response leaves the user to move; true makes the engine play the first
// move before the response. Returns the initial snapshot (including the
// engine's opening move and its search stats when engineStarts).
func (s *Service) NewGame(engineStarts bool) (Snapshot, *MoveStats, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Snapshot{}, nil, ErrDraining
	}
	for len(s.sessions) >= s.cfg.MaxSessions {
		if !s.evictLRULocked() {
			break
		}
	}
	id := newID()
	for _, dup := s.sessions[id]; dup; _, dup = s.sessions[id] {
		id = newID()
	}
	s.seedCounter++
	sess := s.newSession(id, engineStarts, s.seedCounter)
	s.sessions[id] = sess
	sess.elem = s.lru.PushFront(sess)
	sess.lastUsed = time.Now()
	s.created.Add(1)
	s.mu.Unlock()

	if !engineStarts {
		snap, err := s.snapshot(sess)
		return snap, nil, err
	}
	// The engine opens: run its first search inside the creation request.
	if !s.acquire() {
		// Roll the session back — the client will retry the whole create.
		// The id was never handed out, so this is an admission rejection,
		// not an eviction: no tombstone (a 4096-entry budget burned by
		// rejected creates would flush genuine evictions early, turning
		// contractual 410s into 404s), no evictedN, and the created count
		// is undone — the attempt lives in rejected only.
		s.rollbackSession(sess)
		s.rejected.Add(1)
		return Snapshot{}, nil, ErrSaturated
	}
	defer s.release()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return Snapshot{}, nil, ErrGone
	}
	ms := s.engineMove(sess)
	return s.snapshotLocked(sess), ms, nil
}

// newSession builds the per-game state: a client of the shared
// evaluate.Server and a local-tree engine over it.
func (s *Service) newSession(id string, engineStarts bool, seedSalt uint64) *gameSession {
	cl := s.srv.NewSyncClient()
	cfg := s.cfg.Search
	cfg.Seed = cfg.Seed*0x9E3779B97F4A7C15 + seedSalt
	cfg.TransposeTable = s.tt
	cfg.TransposeSize = 0
	side := game.P2
	if engineStarts {
		side = game.P1
	}
	s.arenas.Add(1)
	return &gameSession{
		id:         id,
		engineSide: side,
		st:         s.game.NewInitial(),
		engine:     mcts.NewLocal(cfg, cl, maxInFlight(cfg.Playouts)),
		cl:         cl,
		rnd:        rng.New(cfg.Seed ^ 0xC0FFEE),
		dist:       make([]float32, s.game.NumActions()),
	}
}

// acquire takes an admission token without blocking; false means the
// service is at its concurrent-move bound (or the inference backpressure
// bound is exhausted) and the caller must answer 429.
func (s *Service) acquire() bool {
	if s.srv.Saturated() {
		return false
	}
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Service) release() { <-s.admit }

// Move applies the user's action to the game, then (unless the game ended)
// runs the engine's reply search on the session's warm tree and applies the
// engine's move. The returned snapshot reflects the position after both
// moves; stats describe the engine's search (nil when the user's move ended
// the game).
func (s *Service) Move(id string, action int) (Snapshot, *MoveStats, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Snapshot{}, nil, ErrDraining
	}
	sess, ok := s.sessions[id]
	if !ok {
		_, gone := s.evicted[id]
		s.mu.Unlock()
		if gone {
			return Snapshot{}, nil, ErrGone
		}
		return Snapshot{}, nil, ErrNotFound
	}
	s.mu.Unlock()

	if !s.acquire() {
		// Rejected before the LRU is touched: a client hammering a
		// saturated server with 429'd moves must not keep its session warm
		// or push an actively-playing session off the LRU end.
		s.rejected.Add(1)
		return Snapshot{}, nil, ErrSaturated
	}
	defer s.release()
	// Admitted: NOW the move counts as activity.
	s.mu.Lock()
	if sess.elem != nil {
		s.lru.MoveToFront(sess.elem)
		sess.lastUsed = time.Now()
	}
	s.mu.Unlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return Snapshot{}, nil, ErrGone
	}
	if sess.done {
		return Snapshot{}, nil, ErrGameOver
	}
	if action < 0 || action >= s.game.NumActions() || !sess.st.Legal(action) {
		return Snapshot{}, nil, ErrIllegalMove
	}
	sess.st.Play(action)
	sess.ply++
	sess.engine.Advance(action)
	s.moves.Add(1)

	if sess.st.Terminal() {
		s.finishLocked(sess)
		return s.snapshotLocked(sess), nil, nil
	}
	ms := s.engineMove(sess)
	return s.snapshotLocked(sess), ms, nil
}

// maxInFlight is the most evaluations a served search keeps in flight: one
// per 32 playouts of the budget. Virtual loss spreads k rollouts over paths
// a serial search would not take at once, and beyond this bound that costs
// strength at equal playouts (EXPERIMENTS.md, "In-flight budget").
func maxInFlight(playouts int) int { return max(1, playouts/32) }

// evalsInFlight is how many evaluations the searches in flight keep
// submitted together. 16 is twice the batch of 8 serve formed before its
// server became a pool, which keeps every served k, and so every served move,
// what it was at the defaults. It has not been tuned for the pool.
const evalsInFlight = 16

// inFlight is the in-flight budget of one served search: ⌊evalsInFlight ÷
// searching⌋, clamped to [1, maxInFlight(playouts)]. searching counts the
// searches in flight service-wide, this one included. A session whose last
// search bought no evaluation (table or terminal hits only) searches at 1:
// with nothing to wait for, virtual loss would only add atomics on the table
// entries every session shares.
func inFlight(searching, playouts int, lastBoughtNone bool) int {
	if lastBoughtNone {
		return 1
	}
	return min(max(evalsInFlight/searching, 1), maxInFlight(playouts))
}

// engineMove runs one engine search + move on a locked, live session and
// returns its stats. Caller holds sess.mu and an admission token.
func (s *Service) engineMove(sess *gameSession) *MoveStats {
	start := time.Now()
	searching := s.searching.Add(1)
	k := inFlight(int(searching), s.cfg.Search.Playouts, sess.boughtNone)
	st := sess.engine.SearchInFlight(sess.st, sess.dist, k)
	s.searching.Add(-1)
	sess.boughtNone = st.Evaluations == 0
	best := train.SampleActionOrLegal(sess.rnd, sess.dist, 0, sess.st)
	sess.st.Play(best)
	sess.ply++
	sess.engine.Advance(best)
	sess.searches++
	sess.stats.Add(st)
	s.moves.Add(1)
	s.reusedVis.Add(int64(st.ReusedVisits))
	s.playoutsN.Add(int64(st.Playouts))
	s.evalsN.Add(int64(st.Evaluations))
	s.transHitsN.Add(int64(st.TransHits))
	if sess.st.Terminal() {
		s.finishLocked(sess)
	}
	return &MoveStats{
		Action:        best,
		Playouts:      st.Playouts,
		Evaluations:   st.Evaluations,
		ReusedVisits:  st.ReusedVisits,
		ReuseFraction: st.ReuseFraction(),
		TransHits:     st.TransHits,
		InFlight:      k,
		DurationMS:    float64(time.Since(start).Microseconds()) / 1000,
	}
}

// finishLocked marks a session's game complete and gives back its search,
// so a finished game holds nothing of it. The session stays queryable until
// evicted, but moves to the LRU tail so budget pressure reclaims finished
// games first. Caller holds sess.mu.
func (s *Service) finishLocked(sess *gameSession) {
	sess.done = true
	s.closeSearchLocked(sess)
	s.completed.Add(1)
	s.mu.Lock()
	if sess.elem != nil {
		s.lru.MoveToBack(sess.elem)
	}
	s.mu.Unlock()
}

// Get returns the current snapshot of a session without touching its LRU
// position (polling a game does not keep it warm).
func (s *Service) Get(id string) (Snapshot, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		_, gone := s.evicted[id]
		s.mu.Unlock()
		if gone {
			return Snapshot{}, ErrGone
		}
		return Snapshot{}, ErrNotFound
	}
	s.mu.Unlock()
	return s.snapshot(sess)
}

func (s *Service) snapshot(sess *gameSession) (Snapshot, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return Snapshot{}, ErrGone
	}
	return s.snapshotLocked(sess), nil
}

// snapshotLocked renders the wire view of a session. Caller holds sess.mu.
func (s *Service) snapshotLocked(sess *gameSession) Snapshot {
	snap := Snapshot{
		ID:           sess.id,
		Game:         s.cfg.GameSpec,
		Ply:          sess.ply,
		ToMove:       int(sess.st.ToMove()),
		EngineSide:   int(sess.engineSide),
		Terminal:     sess.done,
		Winner:       int(sess.st.Winner()),
		ModelVersion: s.cfg.InitialVersion,
	}
	if !sess.done {
		// Exactly sized, never reused: it is encoded after sess.mu is released.
		snap.Legal = sess.st.LegalMoves(make([]int, 0, s.game.NumActions()))
	}
	return snap
}

// evictLRULocked evicts the least-recently-used session. Caller holds
// s.mu. The map/LRU removal is synchronous — no new request can route to
// the session — while the engine teardown runs on its own goroutine
// because it must wait for any in-flight search to drain (mcts engine
// Close blocks on the session mutex): an evicted in-flight search finishes
// and is discarded, never raced. Returns false when the LRU is empty.
func (s *Service) evictLRULocked() bool {
	back := s.lru.Back()
	if back == nil {
		return false
	}
	sess := back.Value.(*gameSession)
	s.removeLocked(sess)
	s.evictedN.Add(1)
	go s.shutdown(sess)
	return true
}

// removeLocked unlinks a session from the map and LRU and records its
// tombstone. Caller holds s.mu.
func (s *Service) removeLocked(sess *gameSession) {
	delete(s.sessions, sess.id)
	if sess.elem != nil {
		s.lru.Remove(sess.elem)
		sess.elem = nil
	}
	if old := s.evictedRing[s.evictedHead]; old != "" {
		delete(s.evicted, old)
	}
	s.evictedRing[s.evictedHead] = sess.id
	s.evictedHead = (s.evictedHead + 1) % len(s.evictedRing)
	s.evicted[sess.id] = struct{}{}
}

// rollbackSession undoes a create the client never saw (admission
// rejection): the session is unlinked without a tombstone or eviction
// count and the created counter is decremented. If a concurrent evictor
// already removed the session, its accounting stands — the id was live in
// the LRU at that point and the eviction was genuine.
func (s *Service) rollbackSession(sess *gameSession) {
	s.mu.Lock()
	if _, live := s.sessions[sess.id]; live {
		delete(s.sessions, sess.id)
		if sess.elem != nil {
			s.lru.Remove(sess.elem)
			sess.elem = nil
		}
		s.created.Add(-1)
	}
	s.mu.Unlock()
	s.shutdown(sess)
}

// janitor evicts idle sessions every IdleTTL/4.
func (s *Service) janitor() {
	defer close(s.janitorDone)
	tick := time.NewTicker(s.cfg.IdleTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			cutoff := time.Now().Add(-s.cfg.IdleTTL)
			s.mu.Lock()
			var idle []*gameSession
			for e := s.lru.Back(); e != nil; {
				prev := e.Prev()
				sess := e.Value.(*gameSession)
				if sess.lastUsed.Before(cutoff) {
					idle = append(idle, sess)
					s.removeLocked(sess)
					s.evictedN.Add(1)
				}
				e = prev
			}
			s.mu.Unlock()
			for _, sess := range idle {
				go s.shutdown(sess)
			}
		}
	}
}

// Drain stops admission of new games and moves (handlers answer 503).
// In-flight moves keep running; call Close to wait for them.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close drains the service and tears everything down: every session is
// closed (waiting for its in-flight search to finish — the drain-safe
// eviction barrier), and the shared inference server is shut down. Call after the HTTP server has stopped
// dispatching requests (http.Server.Shutdown).
func (s *Service) Close() {
	s.Drain()
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}
	s.mu.Lock()
	all := make([]*gameSession, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	for _, sess := range all {
		s.removeLocked(sess)
	}
	s.mu.Unlock()
	for _, sess := range all {
		s.shutdown(sess) // synchronous: waits for in-flight searches
	}
	s.srv.Close()
}

// gameSession is one user's persistent game: the live state, the warm
// search engine following it move by move, and its inference client.
// mu serialises moves and extends down into the engine's own session mutex
// (Search/Advance/Close), so the pool's eviction path and the move path can
// never race on the tree.
type gameSession struct {
	id         string
	engineSide game.Player

	mu     sync.Mutex
	st     game.State
	engine *mcts.Local
	cl     *evaluate.Client
	rnd    *rng.Rand
	dist   []float32
	closed bool
	done   bool
	ply    int

	searches int
	stats    mcts.Stats
	// boughtNone: the last search bought no evaluation (see inFlight).
	boughtNone bool

	elem     *list.Element // guarded by Service.mu
	lastUsed time.Time     // guarded by Service.mu
}

// shutdown finishes a session: it waits for an in-flight move to complete
// (session mutex), marks the session closed so late requests get ErrGone,
// and gives back its search unless the game already did.
func (s *Service) shutdown(sess *gameSession) {
	sess.mu.Lock()
	s.closeSearchLocked(sess)
	sess.closed = true
	sess.mu.Unlock()
}

// closeSearchLocked closes the engine (its tree returns to the arena pool)
// and the client, and drops them with the sampler and policy scratch, once:
// a session without an engine has nothing to give back. Caller holds sess.mu.
func (s *Service) closeSearchLocked(sess *gameSession) {
	if sess.engine == nil {
		return
	}
	sess.engine.Close()
	sess.cl.Close()
	sess.engine, sess.cl, sess.rnd, sess.dist = nil, nil, nil, nil
	s.arenas.Add(-1)
}
