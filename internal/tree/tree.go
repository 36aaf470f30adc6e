// Package tree implements the Monte-Carlo search tree shared by all engine
// variants. Following the paper (Section 4.2), the tree is "managed as a
// dynamically allocated array of node structs": nodes live in a
// preallocated arena and refer to each other by index, which keeps the
// structure compact, cache-friendly for the local-tree scheme, and free of
// pointer-chasing allocation during search.
//
// Mutable per-node statistics (visit count N, accumulated value W, virtual
// loss VL) are stored atomically so the shared-tree scheme's selection phase
// can read them without locks, while expansion and the multi-field
// virtual-loss/backup updates take the per-node mutex exactly as Algorithm 2
// describes ("obtain lock ... release lock").
package tree

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// wScale converts float64 values into fixed-point int64 so W can be updated
// with atomic adds. Values are bounded by the playout count (<= millions),
// so 2^20 fractional bits cannot overflow int64 in any realistic search.
const wScale = 1 << 20

// nilNode marks an absent node reference.
const nilNode int32 = -1

// VirtualLossMode selects how in-flight traversals discourage path
// collisions between parallel workers.
type VirtualLossMode int

// Virtual-loss variants referenced in Section 2.1: a pre-defined constant
// penalty (Chaslot et al.) or a visit-count-style correction that treats
// in-flight evaluations as already-counted visits (WU-UCT).
const (
	// VLConstant subtracts a constant loss per in-flight traversal.
	VLConstant VirtualLossMode = iota
	// VLUnobserved counts in-flight traversals as visits without biasing Q
	// (the "watch the unobserved" correction).
	VLUnobserved
	// VLNone disables virtual loss entirely: in-flight traversals do not
	// influence selection at all. This is the no-diversification baseline
	// used by the ablation studies; parallel workers will pile onto the
	// same paths and duplicate evaluations.
	VLNone
)

// Config holds the search-tree hyper-parameters of Equation 1.
type Config struct {
	// CPuct is the exploration constant c in Equation 1.
	CPuct float64
	// VirtualLoss is the per-traversal penalty magnitude for VLConstant.
	VirtualLoss float64
	// VLMode selects the virtual-loss variant.
	VLMode VirtualLossMode
}

// DefaultConfig returns the hyper-parameters used by the evaluation.
func DefaultConfig() Config {
	return Config{CPuct: 5.0, VirtualLoss: 1.0, VLMode: VLConstant}
}

// Node is one tree node. The edge statistics (N, W, P) describe the edge
// from the node's parent to this node, following the usual AlphaZero
// formulation of Q(s,a)/N(s,a)/P(s,a).
type Node struct {
	mu sync.Mutex

	parent int32 // arena index of the parent, nilNode for the root
	action int32 // action that leads from the parent to this node

	firstChild  atomic.Int32 // arena index of the first child; nilNode while unexpanded
	numChildren int32

	prior float32 // P(s,a) from the parent's DNN policy

	n  atomic.Int32 // N(s,a): completed visits
	vl atomic.Int32 // outstanding virtual-loss traversals
	w  atomic.Int64 // W(s,a): accumulated value, fixed-point wScale

	// stats, when non-nil, points at the transposition table's shared
	// per-state statistics for the position this node represents. Selection
	// then reads Q from the shared pool (every in-edge across every
	// attached tree contributes) while the local n/vl/w keep per-edge
	// accounting for the exploration term — the DAG-UCT split documented in
	// transpose.go.
	stats atomic.Pointer[StateStats]

	// terminal is set once the game is known to end at this node, after
	// termValue — the outcome from the perspective of the player to move
	// here — has been written: a reader that loads terminal as true may read
	// termValue without a lock.
	terminal  atomic.Bool
	termValue float64
}

// Parent returns the parent index, or -1 for the root.
func (nd *Node) Parent() int32 { return nd.parent }

// Action returns the action leading into this node.
func (nd *Node) Action() int { return int(nd.action) }

// Prior returns P(s,a).
func (nd *Node) Prior() float64 { return float64(nd.prior) }

// Visits returns N(s,a).
func (nd *Node) Visits() int { return int(nd.n.Load()) }

// VirtualLossCount returns the number of in-flight traversals through the
// node's edge.
func (nd *Node) VirtualLossCount() int { return int(nd.vl.Load()) }

// TotalValue returns W(s,a).
func (nd *Node) TotalValue() float64 { return float64(nd.w.Load()) / wScale }

// Q returns the mean action value W/N (0 when unvisited).
func (nd *Node) Q() float64 {
	n := nd.n.Load()
	if n == 0 {
		return 0
	}
	return float64(nd.w.Load()) / wScale / float64(n)
}

// Expanded reports whether children have been attached.
func (nd *Node) Expanded() bool { return nd.firstChild.Load() != nilNode }

// SharedStats returns the transposition entry's statistics attached to this
// node, or nil when the node is not transposition-linked.
func (nd *Node) SharedStats() *StateStats { return nd.stats.Load() }

// Terminal reports whether the node is a game-over state.
func (nd *Node) Terminal() bool { return nd.terminal.Load() }

// TerminalValue returns the game outcome recorded at a terminal node, from
// the perspective of the player to move there. Only valid once Terminal has
// returned true.
func (nd *Node) TerminalValue() float64 { return nd.termValue }

// Tree is an arena of nodes plus the scoring configuration.
type Tree struct {
	cfg   Config
	nodes []Node
	// next is the allocation cursor; accessed under allocMu in shared mode.
	next    int32
	allocMu sync.Mutex
	root    int32
	full    atomic.Bool
	// doubleExpand counts Expand calls that found the node already
	// expanded by a racing worker — each one is a wasted (duplicate) DNN
	// evaluation, the quantity virtual loss exists to minimise. The counter
	// is cumulative across RebaseRoot generations (a rollout that straddles
	// a rebase still lands in the total) and cleared only by Reset;
	// genWastedBase snapshots it at each generation boundary so per-move
	// attribution stays exact.
	doubleExpand  atomic.Int64
	genWastedBase atomic.Int64
	// generation counts root epochs: it advances on every Reset and every
	// successful RebaseRoot, tagging which root a counter reading or an
	// in-flight rollout belongs to.
	generation atomic.Uint64
	// remap is the old-index -> new-index scratch used by RebaseRoot's
	// compaction; allocated once per tree (arena recycling, no per-move
	// garbage).
	remap []int32
	// priorScratch backs RemixRootPriors.
	priorScratch []float32
}

// RebaseStats reports what one RebaseRoot promotion preserved: the paper's
// evaluation currency is DNN evaluations per playout, and RetainedVisits is
// exactly the number of completed playouts whose evaluations the next move's
// search inherits instead of re-buying from the device.
type RebaseStats struct {
	// RetainedNodes is the size of the promoted subtree (including the new
	// root).
	RetainedNodes int
	// RetainedVisits is N(new root): completed rollouts preserved across
	// the move.
	RetainedVisits int
	// DiscardedNodes counts the abandoned sibling-subtree slots the
	// compaction reclaimed.
	DiscardedNodes int
	// Generation is the tree generation after the rebase.
	Generation uint64
}

var released sync.Pool // trees handed back by Release, for New to reuse

// New creates a tree with storage for capacity nodes and installs a fresh
// root. Capacity is fixed for the lifetime of the tree: growing the arena
// would move nodes under concurrent readers. Size it as
// playouts*avgFanout+1 (see SuggestCapacity). It may return a released
// tree of the same Config and capacity, Reset: it reads like a new one.
func New(cfg Config, capacity int) *Tree {
	if capacity < 1 {
		panic("tree: capacity must be at least 1")
	}
	t, _ := released.Get().(*Tree)
	if t == nil || t.cfg != cfg || len(t.nodes) != capacity {
		t = &Tree{cfg: cfg, nodes: make([]Node, capacity)}
	}
	t.Reset()
	return t
}

// Release hands the arena to a later New of the same shape. No traversal may
// be in flight, and neither t nor its nodes may be used afterwards.
func (t *Tree) Release() { released.Put(t) }

// SuggestCapacity returns an arena size for a search of the given playout
// budget and action-space size: every playout expands at most one node with
// at most fanout children.
func SuggestCapacity(playouts, fanout int) int {
	return playouts*fanout + fanout + 1
}

// Allocated returns the number of nodes currently in use.
func (t *Tree) Allocated() int {
	t.allocMu.Lock()
	defer t.allocMu.Unlock()
	return int(t.next)
}

// Full reports whether an expansion has ever been rejected for capacity.
func (t *Tree) Full() bool { return t.full.Load() }

// DoubleExpansions returns the number of duplicate expansions since the
// last Reset — rollouts whose evaluation was wasted because a racing
// worker expanded the same leaf first. The count survives RebaseRoot, so
// wasted work is never silently dropped at a move boundary; engines that
// want per-move numbers snapshot it at search start and subtract.
func (t *Tree) DoubleExpansions() int64 { return t.doubleExpand.Load() }

// DoubleExpansionsThisGen returns the duplicate expansions recorded since
// the current root generation began (the last Reset or RebaseRoot). A
// rollout that was in flight when the generation turned over is attributed
// to the generation in which its Expand actually ran.
func (t *Tree) DoubleExpansionsThisGen() int64 {
	return t.doubleExpand.Load() - t.genWastedBase.Load()
}

// Generation returns the current root epoch. It advances on every Reset
// and every successful RebaseRoot.
func (t *Tree) Generation() uint64 { return t.generation.Load() }

// Root returns the root node index.
func (t *Tree) Root() int32 { return t.root }

// Node returns the node at index i.
func (t *Tree) Node(i int32) *Node { return &t.nodes[i] }

// Reset discards all nodes and installs a fresh root. Must not run
// concurrently with any other tree operation.
func (t *Tree) Reset() {
	t.next = 0
	t.full.Store(false)
	t.doubleExpand.Store(0)
	t.genWastedBase.Store(0)
	t.generation.Add(1)
	t.root = t.allocNode(nilNode, -1, 1)
}

// RebaseRoot promotes the child of the current root reached via action to
// be the new root, retaining its whole subtree (statistics intact) and
// reclaiming every abandoned sibling subtree's arena slot by compacting the
// survivors to the front of the arena. It returns what was retained, or
// ok=false when the root is unexpanded or has no child for action (the
// caller should Reset instead).
//
// Must not run concurrently with any other tree operation: all in-flight
// traversals must have drained (root virtual loss zero) before the rebase,
// because compaction moves nodes. The engines enforce this with their
// session locks.
//
// The compaction relies on two arena invariants: parents are always
// allocated before their children (so every retained node's ancestors have
// smaller indices), and a node's children occupy one contiguous block (so
// assigning new indices in ascending old-index order preserves block
// contiguity and each node moves to an index no larger than its own —
// making the in-place sweep safe).
func (t *Tree) RebaseRoot(action int) (RebaseStats, bool) {
	root := &t.nodes[t.root]
	first := root.firstChild.Load()
	if first == nilNode {
		return RebaseStats{}, false
	}
	newRoot := nilNode
	for i := int32(0); i < root.numChildren; i++ {
		if t.nodes[first+i].action == int32(action) {
			newRoot = first + i
			break
		}
	}
	if newRoot == nilNode {
		return RebaseStats{}, false
	}

	t.allocMu.Lock()
	defer t.allocMu.Unlock()
	n := t.next
	if t.remap == nil {
		t.remap = make([]int32, len(t.nodes))
	}
	remap := t.remap[:n]
	for i := range remap {
		remap[i] = nilNode
	}
	// Mark + number in one ascending pass: a node is retained iff it is the
	// new root or its parent is retained (parent index < child index).
	remap[newRoot] = 0
	count := int32(1)
	for i := newRoot + 1; i < n; i++ {
		if p := t.nodes[i].parent; p >= newRoot && remap[p] != nilNode {
			remap[i] = count
			count++
		}
	}
	retainedVisits := int(t.nodes[newRoot].n.Load())
	// Sweep survivors down. dst <= src always, and destinations are
	// strictly increasing, so no uncopied source is ever overwritten.
	for src := newRoot; src < n; src++ {
		dst := remap[src]
		if dst == nilNode {
			continue
		}
		s := &t.nodes[src]
		d := &t.nodes[dst]
		parent, firstChild := nilNode, s.firstChild.Load()
		if src != newRoot {
			parent = remap[s.parent]
		}
		if firstChild != nilNode {
			firstChild = remap[firstChild]
		}
		d.parent = parent
		d.action = s.action
		d.prior = s.prior
		d.numChildren = s.numChildren
		d.firstChild.Store(firstChild)
		d.n.Store(s.n.Load())
		d.vl.Store(s.vl.Load())
		d.w.Store(s.w.Load())
		// The transposition link survives compaction: entries reference
		// StateStats blocks, not arena indices, so moving the node cannot
		// dangle anything — and carrying the pointer is what makes shared
		// statistics persist across move boundaries.
		d.stats.Store(s.stats.Load())
		d.termValue = s.termValue
		if v := s.terminal.Load(); d.terminal.Load() != v { // skip a locked store
			d.terminal.Store(v)
		}
	}
	t.next = count
	t.root = 0
	t.full.Store(false)
	t.genWastedBase.Store(t.doubleExpand.Load())
	gen := t.generation.Add(1)
	return RebaseStats{
		RetainedNodes:  int(count),
		RetainedVisits: retainedVisits,
		DiscardedNodes: int(n - count),
		Generation:     gen,
	}, true
}

// RemixRootPriors hands the root children's priors to mix and stores the
// result back — the re-rooted Dirichlet injection point: a node promoted by
// RebaseRoot was expanded as an interior node (clean priors), and the next
// search re-mixes exploration noise exactly once when it becomes the root.
// No-op on an unexpanded root. Must not run concurrently with a search.
func (t *Tree) RemixRootPriors(mix func(priors []float32)) {
	root := &t.nodes[t.root]
	first := root.firstChild.Load()
	if first == nilNode {
		return
	}
	k := int(root.numChildren)
	if cap(t.priorScratch) < k {
		t.priorScratch = make([]float32, k)
	}
	pr := t.priorScratch[:k]
	for i := 0; i < k; i++ {
		pr[i] = t.nodes[first+int32(i)].prior
	}
	mix(pr)
	for i := 0; i < k; i++ {
		t.nodes[first+int32(i)].prior = pr[i]
	}
}

// allocNode writes the next slot with plain stores: nothing reaches it until
// Expand publishes firstChild (Reset and RebaseRoot run with none in flight).
func (t *Tree) allocNode(parent, action int32, prior float32) int32 {
	idx := t.next
	t.next++
	t.nodes[idx] = Node{parent: parent, action: action, prior: prior}
	t.nodes[idx].firstChild.Store(nilNode)
	return idx
}

// Expand attaches children for the given actions/priors to node idx. It is
// safe to call concurrently: the per-node mutex serialises double expansion
// (two shared-tree workers can race to the same leaf), and the second
// caller becomes a no-op. markTerminal attaches no children and records the
// game outcome instead.
//
// Expand returns false when the arena has no room for the children; the
// caller should still back up the evaluation (the node simply stays a leaf).
func (t *Tree) Expand(idx int32, actions []int, priors []float32) bool {
	if len(actions) == 0 {
		panic("tree: Expand with no actions")
	}
	if len(actions) != len(priors) {
		panic(fmt.Sprintf("tree: %d actions but %d priors", len(actions), len(priors)))
	}
	nd := &t.nodes[idx]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.firstChild.Load() != nilNode {
		t.doubleExpand.Add(1)
		return true // another worker expanded first
	}
	t.allocMu.Lock()
	if int(t.next)+len(actions) > len(t.nodes) {
		t.allocMu.Unlock()
		t.full.Store(true)
		return false
	}
	first := t.next
	for i, a := range actions {
		t.allocNode(idx, int32(a), priors[i])
	}
	t.allocMu.Unlock()
	nd.numChildren = int32(len(actions))
	// Publishing firstChild last makes the children visible atomically.
	nd.firstChild.Store(first)
	return true
}

// MarkTerminal records that the game ends at idx with the given outcome
// (from the perspective of the player to move at idx). Workers of a shared
// tree may reach the same game-over leaf together: the first one publishes
// the value and then the flag, the others find the flag set and leave the
// value alone, so lock-free readers never see it change.
func (t *Tree) MarkTerminal(idx int32, value float64) {
	nd := &t.nodes[idx]
	nd.mu.Lock()
	if !nd.terminal.Load() {
		nd.termValue = value
		nd.terminal.Store(true)
	}
	nd.mu.Unlock()
}

// Children calls f for each child index of idx. It returns immediately for
// unexpanded nodes.
func (t *Tree) Children(idx int32, f func(child int32, nd *Node)) {
	nd := &t.nodes[idx]
	first := nd.firstChild.Load()
	if first == nilNode {
		return
	}
	for i := int32(0); i < nd.numChildren; i++ {
		f(first+i, &t.nodes[first+i])
	}
}

// score computes the PUCT score (Equation 1) of a child edge, adjusted for
// the configured virtual-loss mode.
//
// For transposition-linked children (SharedStats non-nil) the Q term comes
// from the shared per-state statistics — negated, because the table stores
// values from the perspective of the player to move AT the state while the
// selecting parent is that player's opponent — so every line converging on
// the position contributes. The exploration term keeps the LOCAL edge
// counts (n, vl of this in-edge): sqrt(parentVisits)/(1+nEff) is a
// progressive-widening schedule over the parent's own playouts, and
// inflating nEff with visits that arrived through other parents would
// starve the edge of exploration it never received. This is the UCT2-style
// "shared value, local counts" backup rule of transposition-table MCTS.
func (t *Tree) score(parentVisits float64, child *Node) float64 {
	localN := float64(child.n.Load())
	localVL := float64(child.vl.Load())
	n, vl := localN, localVL
	w := float64(child.w.Load()) / wScale
	ss := child.stats.Load()
	if ss != nil {
		// Replace the edge's value statistics with the shared pool's.
		// Sign: w_edge accumulates -v per backup where v is the state
		// mover's value, and w_state accumulates +v, over the same set of
		// traversals — so the shared Q seen from the parent is -(w_s/n_s).
		n = float64(ss.n.Load())
		vl = float64(ss.vl.Load())
		w = -float64(ss.w.Load()) / wScale
	}

	var q, nEff float64
	switch t.cfg.VLMode {
	case VLNone:
		nEff = n
		if n > 0 {
			q = w / n
		}
	case VLConstant:
		// In-flight traversals count as visits that each lost VirtualLoss.
		nEff = n + vl
		if nEff > 0 {
			q = (w - t.cfg.VirtualLoss*vl) / nEff
		}
	case VLUnobserved:
		// In-flight traversals inflate the visit count only.
		nEff = n + vl
		if n > 0 {
			q = w / n
		}
	}
	if ss != nil {
		// Exploration uses the local edge count even when Q is shared.
		nEff = localN
		if t.cfg.VLMode != VLNone {
			nEff += localVL
		}
	}
	u := t.cfg.CPuct * float64(child.prior) * math.Sqrt(parentVisits) / (1 + nEff)
	return q + u
}

// SelectChild returns the child of idx with the maximal PUCT score, or
// nilNode if idx is unexpanded. Ties break towards the lowest index, which
// is deterministic given a deterministic prior order.
func (t *Tree) SelectChild(idx int32) int32 {
	nd := &t.nodes[idx]
	first := nd.firstChild.Load()
	if first == nilNode {
		return nilNode
	}
	// Parent visit total Σ_b N(s,b) including in-flight traversals —
	// except under VLNone, whose contract is that in-flight traversals do
	// not influence selection AT ALL: with the virtual-loss term disabled,
	// counting them here would still perturb every child's exploration
	// bonus, so a one-worker engine could never reproduce the serial
	// search exactly (the cross-engine equivalence tests pin this).
	pv := nd.n.Load()
	if t.cfg.VLMode != VLNone {
		pv += nd.vl.Load()
	}
	parentVisits := float64(pv)
	if parentVisits < 1 {
		parentVisits = 1
	}
	best := first
	bestScore := math.Inf(-1)
	for i := int32(0); i < nd.numChildren; i++ {
		c := &t.nodes[first+i]
		s := t.score(parentVisits, c)
		if s > bestScore {
			bestScore = s
			best = first + i
		}
	}
	return best
}

// ApplyVirtualLoss marks the edge into idx as having an in-flight
// traversal. In shared mode the per-node lock is taken to mirror the
// paper's "obtain lock; update node's UCT score with virtual loss; release
// lock" step; pass locked=false on the single-owner master thread.
func (t *Tree) ApplyVirtualLoss(idx int32, locked bool) {
	nd := &t.nodes[idx]
	// A transposition-linked edge also marks the traversal on the shared
	// per-state counter so concurrent lines through OTHER in-edges see the
	// in-flight work. The shared bump stays inside the node mutex in locked
	// mode so it cannot race AttachShared's edge-VL transfer (which would
	// double-count this unit); Backup drains the shared unit iff it drains
	// the edge unit, keeping the two counters paired.
	if locked {
		nd.mu.Lock()
		nd.vl.Add(1)
		if ss := nd.stats.Load(); ss != nil {
			ss.vl.Add(1)
		}
		nd.mu.Unlock()
	} else {
		nd.vl.Add(1)
		if ss := nd.stats.Load(); ss != nil {
			ss.vl.Add(1)
		}
	}
}

// AttachShared links node idx to a transposition entry's shared statistics.
// Idempotent: only the first attach takes effect (a node represents one
// position, so racing attachers carry the same entry). Any virtual loss
// already outstanding on the edge is transferred to the shared counter so
// the pairing invariant (shared VL = Σ edge VL over attached in-edges)
// holds from the moment of attachment.
func (t *Tree) AttachShared(idx int32, e *TransEntry) {
	if e == nil {
		return
	}
	nd := &t.nodes[idx]
	nd.mu.Lock()
	if nd.stats.Load() == nil {
		ss := &e.stats
		nd.stats.Store(ss)
		if vl := nd.vl.Load(); vl > 0 {
			ss.vl.Add(vl)
		}
	}
	nd.mu.Unlock()
}

// Backup propagates a leaf evaluation to the root (Section 2.1 step 3),
// incrementing N, accumulating W with alternating sign, and releasing one
// unit of virtual loss per level. value must be from the perspective of the
// player to move at the leaf node.
func (t *Tree) Backup(leaf int32, value float64, locked bool) {
	// The edge into the leaf was chosen by the leaf's parent player, whose
	// perspective is the negation of the leaf mover's value.
	v := -value
	for idx := leaf; idx != nilNode; {
		nd := &t.nodes[idx]
		if locked {
			nd.mu.Lock()
		}
		nd.n.Add(1)
		nd.w.Add(int64(v * wScale))
		drained := false
		if nd.vl.Load() > 0 {
			nd.vl.Add(-1)
			drained = true
		}
		// The shared update stays inside the node mutex (locked mode) so it
		// serialises with AttachShared's edge-VL transfer: draining the
		// edge before the transfer but the shared pool after it would push
		// the shared counter negative.
		if ss := nd.stats.Load(); ss != nil {
			// Shared per-state statistics accumulate from the perspective
			// of the player to move AT the state: -v, since v at this level
			// is the parent's (selecting player's) perspective.
			ss.n.Add(1)
			ss.w.Add(int64(-v * wScale))
			// Drain the shared virtual loss only when this backup drained
			// the edge's own unit: a traversal that never applied VL (the
			// serial engines) must not consume another line's in-flight
			// marker through the shared pool.
			if drained {
				ss.vl.Add(-1)
			}
		}
		if locked {
			nd.mu.Unlock()
		}
		v = -v
		idx = nd.parent
	}
}

// PathLength returns the number of edges between idx and the root.
func (t *Tree) PathLength(idx int32) int {
	depth := 0
	for i := t.nodes[idx].parent; i != nilNode; i = t.nodes[i].parent {
		depth++
	}
	return depth
}

// VisitDistribution writes the root children's normalised visit counts into
// dst (indexed by action) and returns the total visits. This is the
// "normalized root's children list wrt visit count" of Algorithms 2 and 3.
func (t *Tree) VisitDistribution(dst []float32) int {
	for i := range dst {
		dst[i] = 0
	}
	total := 0
	t.Children(t.root, func(_ int32, nd *Node) {
		total += int(nd.n.Load())
	})
	if total == 0 {
		return 0
	}
	inv := 1 / float32(total)
	t.Children(t.root, func(_ int32, nd *Node) {
		dst[nd.action] = float32(nd.n.Load()) * inv
	})
	return total
}

// MaxDepth returns the maximum depth over all allocated nodes (root = 0).
// Intended for tests and profiling, not hot paths.
func (t *Tree) MaxDepth() int {
	t.allocMu.Lock()
	n := int(t.next)
	t.allocMu.Unlock()
	maxD := 0
	for i := 0; i < n; i++ {
		if d := t.PathLength(int32(i)); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// OutstandingVirtualLoss sums VL over all allocated nodes; it must be zero
// after every search completes (checked by property tests).
func (t *Tree) OutstandingVirtualLoss() int {
	t.allocMu.Lock()
	n := int(t.next)
	t.allocMu.Unlock()
	total := 0
	for i := 0; i < n; i++ {
		total += int(t.nodes[i].vl.Load())
	}
	return total
}
