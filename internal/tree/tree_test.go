package tree

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/parmcts/parmcts/internal/rng"
)

func newTestTree(capacity int) *Tree {
	return New(DefaultConfig(), capacity)
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	New(DefaultConfig(), 0)
}

func TestRootProperties(t *testing.T) {
	tr := newTestTree(16)
	root := tr.Node(tr.Root())
	if root.Parent() != -1 {
		t.Error("root should have no parent")
	}
	if root.Expanded() {
		t.Error("fresh root should be unexpanded")
	}
	if tr.Allocated() != 1 {
		t.Errorf("allocated = %d, want 1", tr.Allocated())
	}
	if tr.SelectChild(tr.Root()) != -1 {
		t.Error("SelectChild on leaf should return -1")
	}
}

func TestExpandAndChildren(t *testing.T) {
	tr := newTestTree(16)
	ok := tr.Expand(tr.Root(), []int{3, 7, 9}, []float32{0.5, 0.3, 0.2})
	if !ok {
		t.Fatal("expand failed")
	}
	var actions []int
	var priors []float64
	tr.Children(tr.Root(), func(_ int32, nd *Node) {
		actions = append(actions, nd.Action())
		priors = append(priors, nd.Prior())
	})
	if len(actions) != 3 || actions[0] != 3 || actions[2] != 9 {
		t.Fatalf("children actions %v", actions)
	}
	if priors[0] != 0.5 {
		t.Fatalf("priors %v", priors)
	}
	if !tr.Node(tr.Root()).Expanded() {
		t.Error("root should be expanded")
	}
}

func TestExpandPanics(t *testing.T) {
	tr := newTestTree(16)
	for _, tc := range []struct {
		name    string
		actions []int
		priors  []float32
	}{
		{"empty", nil, nil},
		{"mismatch", []int{1, 2}, []float32{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tr.Expand(tr.Root(), tc.actions, tc.priors)
		}()
	}
}

func TestDoubleExpandIsNoOp(t *testing.T) {
	tr := newTestTree(32)
	tr.Expand(tr.Root(), []int{0, 1}, []float32{0.6, 0.4})
	before := tr.Allocated()
	if !tr.Expand(tr.Root(), []int{5, 6, 7}, []float32{0.3, 0.3, 0.4}) {
		t.Fatal("second expand should report success (no-op)")
	}
	if tr.Allocated() != before {
		t.Fatal("second expand allocated nodes")
	}
	var acts []int
	tr.Children(tr.Root(), func(_ int32, nd *Node) { acts = append(acts, nd.Action()) })
	if len(acts) != 2 || acts[0] != 0 {
		t.Fatalf("children changed: %v", acts)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	tr := newTestTree(3) // root + 2 children max
	if !tr.Expand(tr.Root(), []int{0, 1}, []float32{0.5, 0.5}) {
		t.Fatal("first expand should fit")
	}
	child := tr.Node(tr.Root()).firstChild.Load()
	if tr.Expand(child, []int{0, 1}, []float32{0.5, 0.5}) {
		t.Fatal("expand should fail when arena is full")
	}
	if !tr.Full() {
		t.Error("Full() should be true after rejection")
	}
}

func TestSuggestCapacity(t *testing.T) {
	if c := SuggestCapacity(1600, 225); c != 1600*225+226 {
		t.Fatalf("SuggestCapacity = %d", c)
	}
}

func TestBackupSingleLevel(t *testing.T) {
	tr := newTestTree(16)
	tr.Expand(tr.Root(), []int{0, 1}, []float32{0.5, 0.5})
	child := tr.Node(tr.Root()).firstChild.Load()
	// leaf value +0.8 from the leaf mover's perspective; the edge into the
	// leaf belongs to the parent mover, so the child's W gets -0.8.
	tr.Backup(child, 0.8, false)
	c := tr.Node(child)
	if c.Visits() != 1 {
		t.Fatalf("child visits = %d", c.Visits())
	}
	if math.Abs(c.TotalValue()+0.8) > 1e-5 {
		t.Fatalf("child W = %v, want -0.8", c.TotalValue())
	}
	root := tr.Node(tr.Root())
	if root.Visits() != 1 {
		t.Fatalf("root visits = %d", root.Visits())
	}
	if math.Abs(root.TotalValue()-0.8) > 1e-5 {
		t.Fatalf("root W = %v, want +0.8 (sign alternates)", root.TotalValue())
	}
	if math.Abs(c.Q()+0.8) > 1e-5 {
		t.Fatalf("Q = %v", c.Q())
	}
}

func TestBackupDeepAlternation(t *testing.T) {
	tr := newTestTree(64)
	idx := tr.Root()
	var path []int32
	for d := 0; d < 4; d++ {
		tr.Expand(idx, []int{0}, []float32{1})
		idx = tr.Node(idx).firstChild.Load()
		path = append(path, idx)
	}
	tr.Backup(idx, 1.0, false)
	want := -1.0
	for i := len(path) - 1; i >= 0; i-- {
		got := tr.Node(path[i]).TotalValue()
		if math.Abs(got-want) > 1e-5 {
			t.Fatalf("depth %d: W = %v, want %v", i+1, got, want)
		}
		want = -want
	}
}

func TestVirtualLossAppliedAndRestored(t *testing.T) {
	tr := newTestTree(16)
	tr.Expand(tr.Root(), []int{0, 1}, []float32{0.5, 0.5})
	child := tr.Node(tr.Root()).firstChild.Load()
	tr.ApplyVirtualLoss(tr.Root(), false)
	tr.ApplyVirtualLoss(child, false)
	if tr.Node(child).VirtualLossCount() != 1 {
		t.Fatal("VL not applied")
	}
	if tr.OutstandingVirtualLoss() != 2 {
		t.Fatalf("outstanding VL = %d", tr.OutstandingVirtualLoss())
	}
	tr.Backup(child, 0.5, false)
	if tr.OutstandingVirtualLoss() != 0 {
		t.Fatalf("VL not restored: %d", tr.OutstandingVirtualLoss())
	}
}

func TestVirtualLossDivertsSelection(t *testing.T) {
	// With equal priors, a worker that marks a child in-flight must push
	// the next selection to a different child — the whole point of VL.
	for _, mode := range []VirtualLossMode{VLConstant, VLUnobserved} {
		cfg := DefaultConfig()
		cfg.VLMode = mode
		tr := New(cfg, 16)
		tr.Expand(tr.Root(), []int{0, 1, 2}, []float32{0.34, 0.33, 0.33})
		first := tr.SelectChild(tr.Root())
		tr.ApplyVirtualLoss(first, false)
		second := tr.SelectChild(tr.Root())
		if second == first {
			t.Errorf("mode %v: selection did not divert", mode)
		}
	}
}

func TestSelectChildPrefersPriorThenValue(t *testing.T) {
	tr := newTestTree(16)
	tr.Expand(tr.Root(), []int{0, 1}, []float32{0.9, 0.1})
	first := tr.SelectChild(tr.Root())
	if tr.Node(first).Action() != 0 {
		t.Fatal("unvisited selection should follow the prior")
	}
	// Feed child 0 terrible outcomes; child 1 great outcomes.
	c0 := tr.Node(tr.Root()).firstChild.Load()
	c1 := c0 + 1
	for i := 0; i < 50; i++ {
		tr.Backup(c0, 1, false)  // leaf mover wins => bad for parent
		tr.Backup(c1, -1, false) // leaf mover loses => good for parent
	}
	best := tr.SelectChild(tr.Root())
	if tr.Node(best).Action() != 1 {
		t.Fatal("selection should follow Q once visits dominate")
	}
}

func TestMarkTerminal(t *testing.T) {
	tr := newTestTree(16)
	tr.MarkTerminal(tr.Root(), -1)
	root := tr.Node(tr.Root())
	if !root.Terminal() || root.TerminalValue() != -1 {
		t.Fatal("terminal mark lost")
	}
}

// Shared-tree workers reaching the same game-over leaf all MarkTerminal it
// while others already read it on their descent, with no lock on the read
// side: whoever sees the flag must see the marked value. Run under -race.
func TestMarkTerminalConcurrentReaders(t *testing.T) {
	for round := 0; round < 200; round++ {
		tr := newTestTree(1)
		nd := tr.Node(tr.Root())
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if nd.Terminal() {
					if v := nd.TerminalValue(); v != -1 {
						t.Errorf("saw terminal with value %v, want -1", v)
					}
					return
				}
				tr.MarkTerminal(tr.Root(), -1)
			}()
		}
		wg.Wait()
		if !nd.Terminal() || nd.TerminalValue() != -1 {
			t.Fatal("terminal mark lost")
		}
	}
}

func TestVisitDistribution(t *testing.T) {
	tr := newTestTree(16)
	dst := make([]float32, 4)
	if total := tr.VisitDistribution(dst); total != 0 {
		t.Fatal("empty tree should have zero visits")
	}
	tr.Expand(tr.Root(), []int{0, 2}, []float32{0.5, 0.5})
	c0 := tr.Node(tr.Root()).firstChild.Load()
	for i := 0; i < 3; i++ {
		tr.Backup(c0, 0, false)
	}
	tr.Backup(c0+1, 0, false)
	total := tr.VisitDistribution(dst)
	if total != 4 {
		t.Fatalf("total = %d", total)
	}
	if math.Abs(float64(dst[0]-0.75)) > 1e-6 || math.Abs(float64(dst[2]-0.25)) > 1e-6 {
		t.Fatalf("distribution = %v", dst)
	}
	if dst[1] != 0 || dst[3] != 0 {
		t.Fatalf("unvisited actions should be 0: %v", dst)
	}
}

func TestResetReusesArena(t *testing.T) {
	tr := newTestTree(16)
	tr.Expand(tr.Root(), []int{0}, []float32{1})
	tr.Backup(tr.Node(tr.Root()).firstChild.Load(), 1, false)
	tr.Reset()
	if tr.Allocated() != 1 {
		t.Fatalf("allocated after reset = %d", tr.Allocated())
	}
	root := tr.Node(tr.Root())
	if root.Visits() != 0 || root.Expanded() {
		t.Fatal("root stats not cleared")
	}
}

func TestPathLengthAndMaxDepth(t *testing.T) {
	tr := newTestTree(16)
	idx := tr.Root()
	for d := 0; d < 3; d++ {
		tr.Expand(idx, []int{0}, []float32{1})
		idx = tr.Node(idx).firstChild.Load()
	}
	if got := tr.PathLength(idx); got != 3 {
		t.Fatalf("PathLength = %d", got)
	}
	if got := tr.MaxDepth(); got != 3 {
		t.Fatalf("MaxDepth = %d", got)
	}
}

// TestSearchInvariantsProperty drives a random single-threaded
// select/expand/backup loop and asserts the structural invariants the
// engines rely on.
func TestSearchInvariantsProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		tr := New(DefaultConfig(), 4096)
		playouts := 100 + r.Intn(100)
		fanout := 2 + r.Intn(4)
		for p := 0; p < playouts; p++ {
			idx := tr.Root()
			tr.ApplyVirtualLoss(idx, false)
			for tr.Node(idx).Expanded() {
				idx = tr.SelectChild(idx)
				tr.ApplyVirtualLoss(idx, false)
			}
			actions := make([]int, fanout)
			priors := make([]float32, fanout)
			for i := range actions {
				actions[i] = i
				priors[i] = 1 / float32(fanout)
			}
			tr.Expand(idx, actions, priors)
			tr.Backup(idx, r.Float64()*2-1, false)
		}
		if tr.OutstandingVirtualLoss() != 0 {
			return false
		}
		if tr.Node(tr.Root()).Visits() != playouts {
			return false
		}
		// Every node's visits must be >= the sum of its children's visits
		// (each backup targets exactly one leaf inside the subtree).
		okInv := true
		for i := 0; i < tr.Allocated(); i++ {
			var childSum int
			tr.Children(int32(i), func(_ int32, nd *Node) { childSum += nd.Visits() })
			if tr.Node(int32(i)).Visits() < childSum {
				okInv = false
			}
		}
		return okInv
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSharedOps hammers the locked code paths from many
// goroutines; run with -race to validate the synchronisation story.
func TestConcurrentSharedOps(t *testing.T) {
	tr := New(DefaultConfig(), 1<<16)
	tr.Expand(tr.Root(), []int{0, 1, 2, 3}, []float32{0.25, 0.25, 0.25, 0.25})
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < iters; i++ {
				idx := tr.Root()
				tr.ApplyVirtualLoss(idx, true)
				for tr.Node(idx).Expanded() {
					idx = tr.SelectChild(idx)
					tr.ApplyVirtualLoss(idx, true)
				}
				tr.Expand(idx, []int{0, 1}, []float32{0.5, 0.5})
				tr.Backup(idx, r.Float64()*2-1, true)
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := tr.Node(tr.Root()).Visits(); got != workers*iters {
		t.Fatalf("root visits = %d, want %d", got, workers*iters)
	}
	if tr.OutstandingVirtualLoss() != 0 {
		t.Fatalf("outstanding VL = %d", tr.OutstandingVirtualLoss())
	}
}

func BenchmarkSelectChild64(b *testing.B) {
	tr := newTestTree(128)
	actions := make([]int, 64)
	priors := make([]float32, 64)
	for i := range actions {
		actions[i] = i
		priors[i] = 1.0 / 64
	}
	tr.Expand(tr.Root(), actions, priors)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SelectChild(tr.Root())
	}
}

func BenchmarkBackupDepth10(b *testing.B) {
	tr := newTestTree(1024)
	idx := tr.Root()
	for d := 0; d < 10; d++ {
		tr.Expand(idx, []int{0}, []float32{1})
		idx = tr.Node(idx).firstChild.Load()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Backup(idx, 0.5, false)
	}
}
