package accel

import (
	"sync"

	"github.com/parmcts/parmcts/internal/nn"
)

// wsPool pools net's forward-pass workspaces by power-of-two batch capacity.
//
// It replaces the earlier sync.Pool-per-bucket scheme, whose release policy
// was left to the garbage collector: one oversized Infer call (say a 512
// batch during a throughput sweep) left a multi-megabyte workspace pinned in
// its bucket until the next GC cycle that happened to drop it — or
// indefinitely under steady allocation-free load, exactly when the pool sees
// the most reuse and the least GC.
//
// The policy here is deterministic: acquisitions are counted, and every
// `window` acquisitions the pool rolls over, recording the largest capacity
// the finished window actually requested. Buckets larger than the high-water
// mark of the last TWO windows are dropped on the roll (two windows of
// hysteresis so an in-flight pattern straddling a boundary does not thrash).
// Steady-state traffic therefore stays allocation-free, while a one-off
// large batch is released within at most three window rolls (its own
// window's high-water mark, plus one window of hysteresis).
type wsPool struct {
	net    *nn.Network
	window int

	mu      sync.Mutex
	buckets map[int][]*nn.BatchWorkspace
	calls   int
	hi      int // largest capacity requested in the current window
	prevHi  int // largest capacity requested in the previous window
	created int // total workspaces constructed (test accounting)
}

// poolWindow is the default acquisition-count window for high-water
// trimming. Small enough that an abandoned batch size is dropped promptly,
// large enough that the roll bookkeeping is free relative to a forward pass.
const poolWindow = 256

func newWSPool(net *nn.Network) *wsPool {
	return &wsPool{net: net, window: poolWindow, buckets: make(map[int][]*nn.BatchWorkspace)}
}

// get returns a workspace with capacity >= batch, rounding capacities up to
// powers of two so the number of distinct buckets stays logarithmic.
func (p *wsPool) get(batch int) *nn.BatchWorkspace {
	capB := 1
	for capB < batch {
		capB <<= 1
	}
	p.mu.Lock()
	if capB > p.hi {
		p.hi = capB
	}
	p.calls++
	if p.calls >= p.window {
		p.trimLocked()
	}
	if l := p.buckets[capB]; len(l) > 0 {
		ws := l[len(l)-1]
		p.buckets[capB] = l[:len(l)-1]
		p.mu.Unlock()
		return ws
	}
	p.created++
	p.mu.Unlock()
	return nn.NewBatchWorkspace(p.net, capB)
}

func (p *wsPool) put(ws *nn.BatchWorkspace) {
	p.mu.Lock()
	capB := ws.Cap()
	p.buckets[capB] = append(p.buckets[capB], ws)
	p.mu.Unlock()
}

// trimLocked rolls the window: buckets above the high-water mark of the two
// most recent windows are released to the allocator.
func (p *wsPool) trimLocked() {
	keep := p.hi
	if p.prevHi > keep {
		keep = p.prevHi
	}
	for capB := range p.buckets {
		if capB > keep {
			delete(p.buckets, capB)
		}
	}
	p.prevHi = p.hi
	p.hi = 0
	p.calls = 0
}

// drain empties every bucket (backend Close).
func (p *wsPool) drain() {
	p.mu.Lock()
	p.buckets = make(map[int][]*nn.BatchWorkspace)
	p.mu.Unlock()
}

// pooledCaps reports the capacities currently held, for tests.
func (p *wsPool) pooledCaps() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var caps []int
	for capB, l := range p.buckets {
		for range l {
			caps = append(caps, capB)
		}
	}
	return caps
}

// createdCount reports how many workspaces were ever constructed, for
// steady-state allocation regression tests.
func (p *wsPool) createdCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}
