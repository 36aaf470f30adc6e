package mcts

import (
	"sync/atomic"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tree"
)

// vlMode is how a rollout marks its path as in flight — the first of the
// two parameters that distinguish the engines' rollouts.
type vlMode uint8

const (
	// vlOff: one rollout at a time, nothing to mark (Serial, LeafParallel).
	vlOff vlMode = iota
	// vlOwner: a single master thread owns the tree and marks its
	// outstanding rollouts without locks (Local, Algorithm 3).
	vlOwner
	// vlLocked: N threads share the tree; virtual loss and backup take the
	// per-node locks (Shared, Algorithm 2).
	vlLocked
)

// core is the one rollout every tree-owning engine runs, plus the Search
// skeleton around it. An engine is a core and a scheduler: the scheduler
// decides which thread calls rollout when, and — when the evaluation is
// awaited on a completion instead of inline — submits the leaf and calls
// finish with the result. The second parameter is eval: non-nil evaluates
// the leaf inline on the calling thread; nil leaves the encoded leaf in the
// scratch for the scheduler to submit.
type core struct {
	s    session
	vl   vlMode
	eval evaluate.Evaluator
	// r is the engine's noise stream: it remixes a warm root's priors and,
	// except in Shared (whose workers each own a split of it), perturbs
	// freshly expanded roots.
	r *rng.Rand
	// scratch holds every rollout context the scheduler may have in use at
	// once: one per worker thread (Shared), one per outstanding evaluation
	// (Local), one otherwise. They live as long as the engine and are only
	// ever used in place, through pointers into the slice.
	scratch []scratch
	// quorum is the evaluator's view of who is searching, nil when it keeps
	// none: search registers one slot per rollout context with it, and held
	// is how many of the running search's slots are still registered.
	quorum SlotRegistrar
	held   atomic.Int32
	// n is how many of the contexts the running search uses: scratch[:n].
	n int
}

// SlotRegistrar is the optional interface of an evaluator — synchronous or
// asynchronous — that batches requests from several searches and wants to
// know how many can still arrive; *evaluate.Client implements it. Every
// engine brackets each Search with BeginSearch(n), n being the requests it
// can have outstanding at once (its rollout contexts), and gives the slots
// back with EndSearch, in one call or several, as soon as each context can
// no longer submit. The evaluator may launch a partial batch the moment it
// holds one request per open slot.
type SlotRegistrar interface {
	BeginSearch(n int)
	EndSearch(n int)
}

// init sets the core up with n rollout contexts. Contexts that run on one
// thread draw root noise from the engine stream itself; a shared tree's
// worker threads each get a split of it — split here, once, on the
// constructing goroutine, so each worker's stream then flows across moves.
func (c *core) init(cfg Config, vl vlMode, eval evaluate.Evaluator, n int) {
	c.s.cfg, c.vl, c.eval, c.r = cfg, vl, eval, rng.New(cfg.Seed)
	c.quorum, _ = eval.(SlotRegistrar)
	c.scratch = make([]scratch, n)
	for i := range c.scratch {
		sc := &c.scratch[i]
		sc.noise, sc.prof = c.r, cfg.Profile
		if vl == vlLocked {
			sc.noise = c.r.Split()
		}
	}
}

// Close implements Engine. It blocks until an in-flight Search or Advance
// has drained (every rollout, on whichever thread, runs inside the locked
// Search body, and Search never returns with an evaluation outstanding) and
// then releases the tree — the drain-safe eviction barrier for session
// pools. Evaluators are not the engine's to close; the caller owns them.
func (c *core) Close() { c.s.close() }

// Advance implements Engine. The session lock serialises the rebase against
// a concurrently running Search: compaction moves nodes, so Advance blocks
// until every in-flight rollout has backed up and drained its virtual loss.
func (c *core) Advance(action int) { c.s.advance(action) }

// Tree exposes the engine's tree for tests and profiling, until Close.
func (c *core) Tree() *tree.Tree { return c.s.tr }

// scheduler is the part of an engine that differs: run executes budget
// rollouts from root over the core's first n contexts and returns when all
// have backed up.
type scheduler interface {
	run(root game.State, budget int)
}

// search is the Search every engine shares: session lock, prepare, run the
// scheduler over the first n rollout contexts — each registered as a slot in
// the evaluator's quorum while it can still submit — merge their stats,
// finish, read the root.
func (c *core) search(st game.State, dist []float32, sched scheduler, n int) Stats {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	var stats Stats
	budget := c.s.prepare(st, &stats, rootNoiseRemix(c.s.cfg, c.r))
	c.n = n
	for i := range c.scratch[:n] {
		c.scratch[i].stats = Stats{}
	}
	start := time.Now()
	if c.quorum != nil {
		c.held.Store(int32(n))
		c.quorum.BeginSearch(n)
	}
	sched.run(st, budget)
	c.leave(int(c.held.Load()))
	for i := range c.scratch[:n] {
		stats.Add(c.scratch[i].stats) // field-complete merge: phase timings are never dropped
	}
	stats.Playouts = budget
	stats.Duration = time.Since(start)
	c.s.finish(&stats)
	c.s.tr.VisitDistribution(dist)
	return stats
}

// leave takes n of the search's slots out of the evaluator's quorum: their
// contexts can no longer submit, so co-tenants' buffered requests must not
// wait for them. Schedulers call it as soon as that is true of a context —
// search itself only returns what is left when run comes back.
func (c *core) leave(n int) {
	if c.quorum != nil && n > 0 {
		c.held.Add(int32(-n))
		c.quorum.EndSearch(n)
	}
}

// scratch is one rollout's context: the buffers and game state it reuses,
// the noise stream and stats shard it owns, and — between rollout and
// finish — the leaf an evaluation is outstanding for. Only one thread
// touches a scratch at a time, so nothing in it is synchronised.
type scratch struct {
	// req holds the encoded leaf (Input) and the network's answer (Policy,
	// Value). It is the request an awaiting scheduler submits and waits on.
	req evaluate.Request
	// st is the rollout's copy of the search root, played down to the leaf.
	st      game.State
	actions []int
	priors  []float32
	key     []byte
	noise   *rng.Rand
	stats   Stats

	// leaf is the node awaiting evaluation; entry, when non-nil, is the
	// transposition entry it was attached to, where finish publishes the
	// evaluation.
	leaf  int32
	entry *tree.TransEntry

	// prof and t are the phase clock (see lap).
	prof bool
	t    time.Time
}

// init makes the scratch's buffers and state for st's game. A context's
// first rollout calls it, so contexts a search never reaches cost nothing.
func (sc *scratch) init(st game.State) {
	sc.st = st.Clone()
	c, h, w := st.EncodedShape()
	sc.req.Input = make([]float32, c*h*w)
	sc.req.Policy = make([]float32, st.NumActions())
	sc.priors = make([]float32, st.NumActions())
}

// start begins a stretch of phase accounting. The clock is only read when
// Config.Profile is set, so the accounting costs nothing when disabled.
func (sc *scratch) start() {
	if sc.prof {
		sc.t = time.Now()
	}
}

// lap charges the time since the previous start or lap to phase. A rollout
// is accounted lap to lap, so its phases sum to the whole of it.
func (sc *scratch) lap(phase *time.Duration) {
	if sc.prof {
		now := time.Now()
		*phase += now.Sub(sc.t)
		sc.t = now
	}
}

// rollout runs one iteration as far as it goes without waiting: Selection
// from the root, then either a leaf that needs no network — an already
// terminal node, a terminal state, a transposition-table hit — which is
// expanded and backed up at once, or a leaf that does. With an inline
// evaluator that leaf is evaluated, expanded and backed up too. It reports
// whether the iteration is complete; on false, sc.req.Input holds the
// encoded leaf and the scheduler owes a finish(sc, ...) with its evaluation.
func (c *core) rollout(root game.State, sc *scratch) bool {
	tr := c.s.tr
	stats := &sc.stats
	// A master with one context has no other rollout in flight to steer
	// away from, so it marks nothing: Local at one context is Serial's
	// rollout.
	locked := c.vl == vlLocked
	marking := locked || c.vl == vlOwner && c.n > 1

	if sc.st == nil {
		sc.init(root)
	}

	// Selection. With virtual loss the root is marked too, so that
	// sqrt(sum N) reflects in-flight traffic.
	sc.start()
	st := sc.st
	st.CopyFrom(root)
	idx := tr.Root()
	if marking {
		tr.ApplyVirtualLoss(idx, locked)
	}
	depth := 0
	for tr.Node(idx).Expanded() {
		idx = tr.SelectChild(idx)
		if marking {
			tr.ApplyVirtualLoss(idx, locked)
		}
		st.Play(tr.Node(idx).Action())
		depth++
	}
	stats.SumDepth += depth
	sc.lap(&stats.SelectTime)

	// Resolve the leaf without the network where possible.
	if nd := tr.Node(idx); nd.Terminal() {
		stats.TerminalHits++
		c.backup(sc, idx, nd.TerminalValue())
		return true
	}
	if st.Terminal() {
		value := terminalValue(st)
		tr.MarkTerminal(idx, value)
		stats.TerminalHits++
		c.backup(sc, idx, value)
		return true
	}
	sc.entry = nil
	if tt := c.s.tt; tt != nil {
		sc.entry, sc.key = transProbe(tt, tr, st, idx, sc.key)
		if v, acts, prs, ok := sc.entry.LoadEval(sc.actions[:0], sc.priors[:0]); ok {
			// Served from the transposition table: no forward pass, and
			// no request leaves the calling thread.
			sc.actions = acts
			if idx == tr.Root() {
				applyRootNoise(c.s.cfg, sc.noise, prs)
			}
			tr.Expand(idx, acts, prs)
			stats.Expansions++
			stats.TransHits++
			sc.lap(&stats.ExpandTime)
			c.backup(sc, idx, v)
			return true
		}
	}

	// The leaf needs the network.
	sc.leaf = idx
	sc.actions = st.LegalMoves(sc.actions[:0])
	sc.lap(&stats.ExpandTime)
	st.Encode(sc.req.Input)
	if c.eval == nil {
		return false
	}
	value := c.eval.Evaluate(sc.req.Input, sc.req.Policy)
	stats.Evaluations++
	sc.lap(&stats.EvalTime)
	c.finish(sc, value, sc.req.Policy)
	return true
}

// finish completes a rollout whose leaf has been evaluated: mask the policy
// to the legal moves, publish the clean priors to the transposition entry,
// perturb them if the leaf is the root, expand, back up.
func (c *core) finish(sc *scratch, value float64, policy []float32) {
	priors := sc.priors[:len(sc.actions)]
	maskedPriors(policy, sc.actions, priors)
	if sc.entry != nil {
		// Publish the clean (pre-noise) priors for transposed lines.
		sc.entry.StoreEval(value, sc.actions, priors)
	}
	if sc.leaf == c.s.tr.Root() {
		applyRootNoise(c.s.cfg, sc.noise, priors)
	}
	c.s.tr.Expand(sc.leaf, sc.actions, priors)
	sc.stats.Expansions++
	sc.lap(&sc.stats.ExpandTime)
	c.backup(sc, sc.leaf, value)
}

// backup propagates value from leaf to the root — under the per-node locks
// when the tree is shared — releasing one unit of virtual loss per level
// where the descent applied one.
func (c *core) backup(sc *scratch, leaf int32, value float64) {
	c.s.tr.Backup(leaf, value, c.vl == vlLocked)
	sc.lap(&sc.stats.BackupTime)
}
