package mcts

import (
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
)

// Serial is the single-threaded reference engine: one rollout at a time,
// no virtual loss, always acting on the most up-to-date tree statistics.
// Section 5.5 uses it as the algorithmic gold standard that the parallel
// engines' training quality is compared against, and the design-time
// profiling of Section 4.2 measures T_select/T_backup/T_DNN on it.
//
// As a scheduler it is the degenerate one: the calling thread runs the
// rollouts back to back, each evaluating its leaf inline.
type Serial struct{ core }

// NewSerial creates a serial engine.
func NewSerial(cfg Config, eval evaluate.Evaluator) *Serial {
	e := &Serial{}
	e.init(cfg, vlOff, eval, 1)
	return e
}

// Name implements Engine.
func (e *Serial) Name() string { return "serial" }

// Search implements Engine.
func (e *Serial) Search(st game.State, dist []float32) Stats { return e.search(st, dist, e, 1) }

func (e *Serial) run(root game.State, budget int) {
	for p := 0; p < budget; p++ {
		e.rollout(root, &e.scratch[0])
	}
}
