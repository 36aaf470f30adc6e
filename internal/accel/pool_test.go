package accel

import (
	"sync"
	"testing"

	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// newFakePool pools workspaces of the smallest network there is, so the
// policy tests can ask for capacity 512 cheaply.
func newFakePool() *wsPool {
	return newWSPool(nn.MustNew(nn.TinyConfig(1, 1, 1, 1), rng.New(1)))
}

// TestPoolSteadyStateReuse: a recurring batch size constructs exactly one
// workspace, forever — the pool's whole point is that steady-state serving
// is allocation-free.
func TestPoolSteadyStateReuse(t *testing.T) {
	p := newFakePool()
	for i := 0; i < 10*poolWindow; i++ {
		ws := p.get(4)
		if ws.Cap() != 4 {
			t.Fatalf("got cap %d, want 4", ws.Cap())
		}
		p.put(ws)
	}
	if c := p.createdCount(); c != 1 {
		t.Fatalf("steady-state traffic constructed %d workspaces, want 1", c)
	}
}

// TestPoolReleasesOversizedWorkspace is the regression test for the
// memory-pinning bug: a single oversized Infer must not pin its workspace
// once steady-state traffic shows the capacity is no longer needed. Within
// two trim windows the big bucket must be gone, deterministically — no GC
// cycle involved.
func TestPoolReleasesOversizedWorkspace(t *testing.T) {
	p := newFakePool()
	// Steady state at batch 4, then one 512 burst.
	for i := 0; i < 8; i++ {
		p.put(p.get(4))
	}
	p.put(p.get(512))
	hasCap := func(c int) bool {
		for _, v := range p.pooledCaps() {
			if v == c {
				return true
			}
		}
		return false
	}
	if !hasCap(512) {
		t.Fatal("big workspace should be pooled immediately after the burst")
	}
	// Three full windows of small traffic: the burst capacity is the
	// high-water mark of its own window, survives one more window through
	// prevHi hysteresis, and must be dropped by the third roll.
	for i := 0; i < 3*poolWindow; i++ {
		p.put(p.get(4))
	}
	if hasCap(512) {
		t.Fatalf("oversized workspace still pooled after three trim windows; pooled caps = %v", p.pooledCaps())
	}
	if !hasCap(4) {
		t.Fatal("steady-state bucket must survive trimming")
	}
}

// TestPoolHysteresisKeepsRecurrentLarge: a batch size that recurs every
// window must NOT be dropped — trimming keys on the high-water mark of the
// last two windows, not on per-bucket idleness.
func TestPoolHysteresisKeepsRecurrentLarge(t *testing.T) {
	p := newFakePool()
	for w := 0; w < 4; w++ {
		for i := 0; i < poolWindow-1; i++ {
			p.put(p.get(4))
		}
		p.put(p.get(256)) // one large call per window
	}
	if c := p.createdCount(); c != 2 {
		t.Fatalf("recurrent large batch was evicted and reconstructed: created %d workspaces, want 2", c)
	}
}

// TestHostedSteadyStateAllocations drives the real Hosted device end to end:
// after the first call warms the pool, repeated same-size Infers construct
// no further BatchWorkspaces.
func TestHostedSteadyStateAllocations(t *testing.T) {
	net := nn.MustNew(nn.TinyConfig(2, 5, 5, 25), rng.New(1))
	d := NewHosted(net, CostModel{LinkBytesPerSec: 1e12}, 1)
	defer d.Close()

	const batch = 8
	inputs := make([][]float32, batch)
	policies := make([][]float32, batch)
	for i := range inputs {
		inputs[i] = make([]float32, net.InputLen())
		policies[i] = make([]float32, net.Cfg.NumActions)
	}
	values := make([]float64, batch)

	d.Infer(inputs, policies, values)
	after := d.pool.createdCount()
	for i := 0; i < 64; i++ {
		d.Infer(inputs, policies, values)
	}
	if c := d.pool.createdCount(); c != after {
		t.Fatalf("steady-state Infer constructed %d extra workspaces", c-after)
	}
}

// TestForChunks: every index is covered exactly once by at most w contiguous
// chunks, for w below, at and above n and for the GOMAXPROCS default; and the
// chunks of one call run concurrently (each waits for all the others before
// returning).
func TestForChunks(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{0, 4}, {1, 4}, {8, 2}, {8, 3}, {7, 7}, {5, 9}, {9, 1}, {6, 0}} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		chunks := 0
		ForChunks(tc.n, tc.w, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			chunks++
			if lo >= hi || hi > tc.n {
				t.Errorf("n=%d w=%d: chunk [%d, %d)", tc.n, tc.w, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Errorf("n=%d w=%d: index %d covered %d times", tc.n, tc.w, i, c)
			}
		}
		if w := tc.w; w > 0 && chunks > min(w, tc.n) {
			t.Errorf("n=%d w=%d: %d chunks", tc.n, tc.w, chunks)
		}
	}

	var barrier sync.WaitGroup
	barrier.Add(4)
	ForChunks(8, 4, func(lo, hi int) {
		barrier.Done()
		barrier.Wait() // returns only once all four chunks are running
	})
}
