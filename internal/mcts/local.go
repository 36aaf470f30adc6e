package mcts

import (
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
)

// Local implements Algorithm 3: a centralized master thread owns the
// complete tree (no locks anywhere on the hot path) and performs all
// in-tree operations, while node evaluations stream through an asynchronous
// evaluator — either an inference thread pool (CPU) or a batched
// accelerator with sub-batch size B (GPU, Section 3.3).
//
// As a scheduler it is the rollout_n_times loop: the master keeps running
// the core's rollout — owner-side virtual loss, evaluation awaited — and
// submitting the leaves it returns while fewer than k are outstanding;
// otherwise it waits for the oldest outstanding evaluation and finishes that
// rollout with the returned priors and value. k is the constructor's
// maxInFlight for Search, or SearchInFlight's per-search limit; at k = 1
// nothing is marked and the search is Serial's, bit for bit. Evaluations are
// applied strictly in submission order, one per wait, so which rollout
// selects after which backups — and under which virtual loss — is a function
// of the budget and k alone, never of which evaluation finishes first: the
// schedule is fixed for any k (see the package comment for what is out of
// scope). Every operation belongs to the single master thread; Search never
// returns with an evaluation outstanding, so Advance and Close always find a
// quiescent tree.
type Local struct {
	core
	async evaluate.Async
}

// NewLocal creates a local-tree engine. maxInFlight is the worker-pool
// size N: the master waits once that many evaluations are outstanding
// (Algorithm 3 line 12). The engine does not own async; the caller closes
// it (it may be shared across moves and engines).
func NewLocal(cfg Config, async evaluate.Async, maxInFlight int) *Local {
	if maxInFlight < 1 {
		panic("mcts: local engine needs maxInFlight >= 1")
	}
	e := &Local{async: async}
	e.init(cfg, vlOwner, nil, maxInFlight)
	e.quorum, _ = async.(SlotRegistrar)
	return e
}

// Name implements Engine.
func (e *Local) Name() string { return "local" }

// Search implements Engine: SearchInFlight at the constructor's maxInFlight.
func (e *Local) Search(st game.State, dist []float32) Stats {
	return e.search(st, dist, e, len(e.scratch))
}

// SearchInFlight is Search with at most k evaluations outstanding, for
// callers that size the in-flight budget per move (internal/serve sizes it
// by load). k must lie in [1, maxInFlight].
func (e *Local) SearchInFlight(st game.State, dist []float32, k int) Stats {
	if k < 1 || k > len(e.scratch) {
		panic("mcts: local search in-flight limit outside [1, maxInFlight]")
	}
	return e.search(st, dist, e, k)
}

// run keeps the search's rollout contexts as a ring: scratch[head], ...,
// scratch[head+count-1] (mod k) carry the outstanding evaluations, oldest
// first, and the next rollout runs in the slot after them — a rollout that
// resolves without the network leaves that slot free for the next.
func (e *Local) run(root game.State, budget int) {
	k := e.n
	head, count := 0, 0
	for submitted := 0; submitted < budget || count > 0; {
		if submitted < budget && count < k {
			sc := &e.scratch[(head+count)%k]
			submitted++
			if e.rollout(root, sc) {
				continue
			}
			e.async.Submit(&sc.req)
			sc.stats.Evaluations++
			sc.lap(&sc.stats.EvalTime)
			count++
			continue
		}
		// The master must wait (thread pool full, or budget fully submitted).
		// Contexts with nothing in flight are idle for good — only a spent
		// budget parks the master with free ones — so they leave the quorum,
		// and Wait sees to it that the head's evaluation is on its way.
		e.leave(int(e.held.Load()) - count)
		sc := &e.scratch[head]
		e.async.Wait(&sc.req)
		sc.start()
		e.finish(sc, sc.req.Value, sc.req.Policy)
		head, count = (head+1)%k, count-1
	}
}
