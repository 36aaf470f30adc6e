package mcts

import (
	"sync"
	"sync/atomic"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
)

// Shared implements Algorithm 2: a pool of N threads, each executing
// complete "threadsafe_rollout"s against a single tree in shared memory.
// Virtual loss diversifies the paths; per-node locks protect the
// multi-field virtual-loss and backup updates.
//
// As a scheduler it hands the core's rollout — locked virtual loss, inline
// evaluation — to N goroutines that draw playout tickets from one counter.
// Each worker's rollout context (buffers, noise stream, stats shard) lives
// for the engine's lifetime; a per-move Search only resets it.
type Shared struct{ core }

// NewShared creates a shared-tree engine with the given worker count.
func NewShared(cfg Config, workers int, eval evaluate.Evaluator) *Shared {
	if workers < 1 {
		panic("mcts: shared engine needs >= 1 worker")
	}
	e := &Shared{}
	e.init(cfg, vlLocked, eval, workers)
	return e
}

// Name implements Engine.
func (e *Shared) Name() string { return "shared" }

// Search implements Engine.
func (e *Shared) Search(st game.State, dist []float32) Stats {
	return e.search(st, dist, e, len(e.scratch))
}

func (e *Shared) run(root game.State, budget int) {
	var counter atomic.Int64 // playout tickets
	var wg sync.WaitGroup
	for w := range e.scratch {
		wg.Add(1)
		go func(sc *scratch) {
			defer wg.Done()
			for counter.Add(1) <= int64(budget) {
				e.rollout(root, sc)
			}
			// No ticket left: this worker submits nothing more, so a batching
			// evaluator must not hold the stragglers' requests for it
			// (end-of-move effect, Section 3.3).
			e.leave(1)
		}(&e.scratch[w])
	}
	wg.Wait()
}
