package mcts

import (
	"sync"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/tree"
)

// DiscardTree is the Advance argument that invalidates a persistent search
// session at a game boundary: the next Search starts from a cold tree
// instead of promoting a child. Any negative action behaves the same.
const DiscardTree = -1

// session is the persistent per-game search state shared by the
// tree-owning engines: the arena-backed tree, its warm/cold status, and
// the reuse accounting that Advance maintains between moves.
//
// The lifecycle contract is: Search(st) leaves the tree rooted at st and
// marks the session cold; each subsequent Advance(a) promotes the child
// reached by a (own move, then the opponent's reply) and re-warms it; the
// next Search then continues from the retained subtree instead of paying
// for its evaluations again. A Search that is not preceded by at least one
// Advance always resets — callers that never call Advance get exactly the
// rebuild-every-move behaviour the paper's workload assumes.
//
// mu serialises the whole Search body against Advance, which is what makes
// a rebase safe: compaction moves nodes, so it must wait for every
// in-flight traversal (and its virtual loss) to drain. Engines whose
// rollouts run on worker goroutines still take mu once per Search, not per
// rollout — the workers are interior to the locked region.
type session struct {
	mu  sync.Mutex
	cfg Config
	tr  *tree.Tree
	// tt is the transposition table (nil = transpositions off). Either the
	// fleet-shared Config.TransposeTable or a private table sized by
	// Config.TransposeSize. Unlike the tree it is NOT reset at move or
	// game boundaries: cached evaluations stay valid until the model
	// weights change (the owner of a shared table resets it there, next to
	// the eval-cache reset), and opening positions recur across games.
	tt   *tree.TransTable
	warm bool
	// synced reports whether the tree's root still tracks the driver's
	// game position: it turns true when a Search roots the tree at its
	// state and false at every discard. advance only rebases a synced
	// tree — an Advance that arrives before the engine's first Search of
	// a new game (arena game 2+, the engine moving second) must not
	// promote a stale subtree left over from the previous game.
	synced bool
	// what the most recent rebase chain retained, consumed by the next
	// Search's stats.
	reusedNodes  int
	reusedVisits int
}

// advance applies one game move to the session. With ReuseTree enabled and
// a non-negative action it promotes the played child's subtree to be the
// new root; otherwise (reuse disabled, discard sentinel, or no such child)
// it marks the session cold so the next Search rebuilds.
func (s *session) advance(action int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tr == nil {
		return
	}
	if !s.cfg.ReuseTree || action < 0 {
		s.warm, s.synced = false, false
		s.reusedNodes, s.reusedVisits = 0, 0
		return
	}
	if !s.synced {
		// The tree predates the current position (a new game's moves are
		// arriving before this engine has searched it); stay cold rather
		// than promote a stale subtree.
		s.warm = false
		s.reusedNodes, s.reusedVisits = 0, 0
		return
	}
	if rs, ok := s.tr.RebaseRoot(action); ok {
		s.warm = true
		s.reusedNodes, s.reusedVisits = rs.RetainedNodes, rs.RetainedVisits
	} else {
		// The root could not follow the move (unexpanded root), so the
		// tree no longer tracks the game; go fully cold.
		s.warm, s.synced = false, false
		s.reusedNodes, s.reusedVisits = 0, 0
	}
}

// prepare readies the tree for a search of st and returns the number of
// new rollouts to run: the configured playout budget minus the root visits
// a warm tree already carries (never negative; at least 1 when the root
// still needs its expansion). It fills the reuse fields of stats and
// applies the re-rooted noise remix on warm trees. Callers must hold
// s.mu.
func (s *session) prepare(st game.State, stats *Stats, remix func(priors []float32)) (budget int) {
	if s.tt == nil {
		if s.cfg.TransposeTable != nil {
			s.tt = s.cfg.TransposeTable
		} else if s.cfg.TransposeSize > 0 {
			s.tt = tree.NewTransTable(s.cfg.TransposeSize)
		}
	}
	if s.tr == nil {
		s.tr = newTreeFor(s.cfg, st)
		s.warm = false
	} else if s.warm && !rootMatches(s.tr, st) {
		// Defence in depth: a warm root whose children are not exactly
		// st's legal moves belongs to a different position (an
		// Advance/Search ordering slip); searching it would be garbage.
		s.warm = false
		s.reusedNodes, s.reusedVisits = 0, 0
		s.tr.Reset()
	} else if !s.warm {
		s.tr.Reset()
	}
	tr := s.tr
	if s.warm {
		stats.ReusedNodes = s.reusedNodes
		stats.ReusedVisits = s.reusedVisits
		if remix != nil {
			tr.RemixRootPriors(remix)
		}
	}
	s.warm = false
	s.synced = true // the root now corresponds to st
	s.reusedNodes, s.reusedVisits = 0, 0

	budget = s.cfg.Playouts - tr.Node(tr.Root()).Visits()
	if budget < 0 {
		budget = 0
	}
	if budget == 0 && !tr.Node(tr.Root()).Expanded() {
		budget = 1
	}
	return budget
}

// finish completes the per-move accounting started by prepare. Callers
// must hold s.mu. Wasted evaluations are read from the tree's
// generation-tagged counter: Reset and RebaseRoot both open a new
// generation, so duplicates recorded by rollouts that straddle a rebase
// are attributed to the generation whose Expand actually ran, never
// double-counted or dropped.
func (s *session) finish(stats *Stats) {
	stats.WastedEvals = int(s.tr.DoubleExpansionsThisGen())
}

// close extends the session mutex to the pool layer: it blocks until any
// in-flight Search or Advance has finished, then releases the tree's arena
// to the next session of the same shape and drops all warm state. Session
// pools (internal/serve) evict engines while a move may still be searching
// on another goroutine; without this barrier the evictor would recycle the
// arena under a live rollout. An evicted search finishes on its own tree
// and its result is discarded, never raced. The engine may be searched
// again (prepare builds a cold tree), but pools treat close as final.
func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tr != nil {
		s.tr.Release()
	}
	s.tr = nil
	s.warm, s.synced = false, false
	s.reusedNodes, s.reusedVisits = 0, 0
}

// rootMatches reports whether the root's child actions are exactly st's
// legal moves (children carry distinct actions, so all legal and as many as
// the legal actions is set equality): best-effort defence in depth behind
// the synced flag against a warm tree drifted from the driver's game. Where
// the legal set barely changes (connect4, early gomoku) a drifted tree can
// pass. An unexpanded root cannot be checked and is accepted.
func rootMatches(tr *tree.Tree, st game.State) bool {
	root := tr.Node(tr.Root())
	if !root.Expanded() {
		return true
	}
	legal := 0
	for a := 0; a < st.NumActions(); a++ {
		if st.Legal(a) {
			legal++
		}
	}
	n, ok := 0, true
	tr.Children(tr.Root(), func(_ int32, nd *tree.Node) {
		n++
		ok = ok && st.Legal(nd.Action())
	})
	return ok && n == legal
}
