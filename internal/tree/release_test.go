package tree

import "testing"

// TestReleasedTreeReadsFresh pins that recycling an arena is invisible: a
// tree left dirty in every way a search can leave one — expanded, terminal
// marks, transposition links, outstanding virtual loss, a rejected
// expansion, a rebase — and then released comes back from New of the same
// shape reading exactly like a new tree, and so do the slots its next
// expansion reuses.
func TestReleasedTreeReadsFresh(t *testing.T) {
	const capacity = 12
	tt := NewTransTable(64)
	recycled := 0
	for attempt := 0; attempt < 10; attempt++ {
		dirty := newTestTree(capacity)
		acts := []int{0, 1, 2, 3}
		priors := []float32{0.4, 0.3, 0.2, 0.1}
		dirty.Expand(dirty.Root(), acts, priors)
		for i := int32(1); i <= 4; i++ {
			e, _ := tt.Acquire(uint64(i), []byte{byte(i)})
			dirty.AttachShared(i, e)
			dirty.ApplyVirtualLoss(i, true)
		}
		dirty.Expand(1, acts, priors)
		dirty.MarkTerminal(5, 1)
		dirty.Backup(5, 1, false)
		dirty.Backup(6, -0.5, true)
		dirty.Expand(2, acts, priors) // rejected: the arena is full
		if !dirty.Full() {
			t.Fatal("setup: the arena should have filled")
		}
		if _, ok := dirty.RebaseRoot(0); !ok {
			t.Fatal("setup: rebase failed")
		}
		dirty.ApplyVirtualLoss(1, false)
		dirty.Release()

		tr := New(DefaultConfig(), capacity)
		if tr == dirty {
			recycled++
		}
		if tr.Allocated() != 1 || tr.Full() || tr.DoubleExpansions() != 0 || tr.OutstandingVirtualLoss() != 0 {
			t.Fatalf("attempt %d: allocated %d, full %v, double expansions %d, virtual loss %d; want a fresh arena",
				attempt, tr.Allocated(), tr.Full(), tr.DoubleExpansions(), tr.OutstandingVirtualLoss())
		}
		freshNode := func(what string, idx int32) {
			nd := tr.Node(idx)
			if nd.Expanded() || nd.Terminal() || nd.TerminalValue() != 0 || nd.SharedStats() != nil ||
				nd.Visits() != 0 || nd.VirtualLossCount() != 0 || nd.TotalValue() != 0 {
				t.Fatalf("attempt %d: %s reads dirty: expanded %v, terminal %v (%v), shared %v, N %d, VL %d, W %v",
					attempt, what, nd.Expanded(), nd.Terminal(), nd.TerminalValue(), nd.SharedStats() != nil,
					nd.Visits(), nd.VirtualLossCount(), nd.TotalValue())
			}
		}
		freshNode("root", tr.Root())
		if tr.Node(tr.Root()).Parent() != -1 {
			t.Fatalf("attempt %d: root has a parent", attempt)
		}
		wide := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		if !tr.Expand(tr.Root(), wide, make([]float32, len(wide))) {
			t.Fatalf("attempt %d: expansion into every slot rejected", attempt)
		}
		tr.Children(tr.Root(), func(child int32, nd *Node) {
			freshNode("reused slot", child)
			if nd.Parent() != tr.Root() || nd.Action() != int(child)-1 {
				t.Fatalf("attempt %d: slot %d has parent %d, action %d", attempt, child, nd.Parent(), nd.Action())
			}
		})
		tr.Release()
	}
	if recycled == 0 {
		t.Fatal("no released arena was reused by New of the same shape")
	}
	if other := New(Config{CPuct: 1}, capacity); other.cfg.CPuct != 1 || len(other.nodes) != capacity {
		t.Fatal("New returned a tree of another shape")
	}
}
