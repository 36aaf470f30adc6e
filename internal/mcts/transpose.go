package mcts

import (
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/tree"
)

// transProbe is the probe the rollout makes when its session has a
// transposition table: compute the verification key, acquire (or create) the
// entry for the position, and link the leaf node to the entry's shared
// statistics. The rollout then tries entry.LoadEval — a hit replaces the DNN
// forward pass — and on a miss stores its own evaluation with StoreEval
// (clean priors, before root noise) so the next line through the position is
// served from the table.
//
// key is caller-owned scratch, reused across rollouts; the extended slice
// is returned. The order probe → attach → load-or-evaluate → expand →
// backup is fixed in core.rollout, once, for every engine — which is what
// makes the engines move-equivalent at concurrency 1.
func transProbe(tt *tree.TransTable, tr *tree.Tree, st game.State, idx int32, key []byte) (*tree.TransEntry, []byte) {
	key = st.AppendStateKey(key[:0])
	entry, _ := tt.Acquire(st.Hash(), key)
	tr.AttachShared(idx, entry)
	return entry, key
}
