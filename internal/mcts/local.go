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
// submitting the leaves it returns while fewer than MaxInFlight are
// outstanding; otherwise it waits for a completion and finishes that
// rollout with the returned priors and value. Every operation belongs to
// the single master thread; Search never returns with an evaluation
// outstanding, so Advance and Close always find a quiescent tree.
type Local struct {
	core
	async evaluate.Async
	// free stacks the rollout contexts not carrying an outstanding
	// evaluation; the core owns MaxInFlight of them.
	free []*scratch
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
	for i := range e.scratch {
		e.free = append(e.free, &e.scratch[i])
	}
	return e
}

// Name implements Engine.
func (e *Local) Name() string { return "local" }

// Search implements Engine.
func (e *Local) Search(st game.State, dist []float32) Stats { return e.search(st, dist, e) }

func (e *Local) run(root game.State, budget int) {
	submitted, completed, inflight := 0, 0, 0
	for completed < budget {
		// Opportunistically drain finished evaluations.
	drain:
		for inflight > 0 {
			select {
			case req := <-e.async.Completions():
				e.complete(req)
				inflight--
				completed++
			default:
				break drain
			}
		}
		if submitted < budget && inflight < len(e.scratch) {
			sc := e.free[len(e.free)-1]
			submitted++
			if e.rollout(root, sc) {
				completed++ // resolved without the network: no request left the master
				continue
			}
			e.free = e.free[:len(e.free)-1]
			e.async.Submit(&sc.req)
			sc.stats.Evaluations++
			sc.lap(&sc.stats.EvalTime)
			inflight++
			continue
		}
		if completed >= budget {
			break
		}
		// Master must wait (thread pool full, or budget fully submitted).
		// Contexts with nothing in flight are idle for good — only a spent
		// budget parks the master with free ones — so they leave the quorum,
		// and Next sees to it that what it waits for is on its way.
		e.leave(int(e.held.Load()) - inflight)
		e.complete(e.async.Next())
		inflight--
		completed++
	}
}

// complete finishes the rollout whose evaluation req carries and returns
// its context to the free stack.
func (e *Local) complete(req *evaluate.Request) {
	sc := req.Ctx.(*scratch)
	sc.start()
	e.finish(sc, req.Value, req.Policy)
	e.free = append(e.free, sc)
}
