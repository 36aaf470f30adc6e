package simsched

import (
	"container/heap"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
)

// MultiResult reports one simulated round of G concurrent local-tree games
// driving a single accelerator.
type MultiResult struct {
	// Total is the makespan: the last master's finish time.
	Total time.Duration
	// PerIteration is the aggregate amortized metric Total/(G*Playouts) —
	// the multi-game counterpart of the paper's per-iteration latency.
	PerIteration time.Duration
	// Batches counts device launches; AvgFill is samples per launch.
	Batches int
	AvgFill float64
}

// simEvent is one scheduled action in the multi-game timeline.
type simEvent struct {
	at     time.Duration
	kind   int // 0 = master step, 1 = deadline flush
	master int // master id (kind 0)
	buf    int // buffer index (kind 1)
	gen    uint64
	seq    int // insertion order, breaks remaining ties deterministically
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// simBuffer is one accelerator queue (shared: one for all masters;
// independent: one per master).
type simBuffer struct {
	reqs  []int // submitting master per buffered request
	start time.Duration
	gen   uint64
}

// LocalAccelShared simulates G concurrent local-tree masters (Algorithm 3)
// sharing ONE inference service with aggregate batch threshold b and a
// flush deadline — the multi-tenant server topology. Masters interleave in
// virtual time; the service launches when b requests aggregate across
// tenants or when the oldest buffered request has waited for deadline,
// whichever comes first (the deadline is mandatory: without it a straggler
// tenant could wait forever on co-tenants that already finished their
// round, which is exactly why the real server flushes on a timer). The
// G·N contention shape of a 64-core host is thus reproducible anywhere.
func LocalAccelShared(w Workload, m accel.CostModel, n, b, g int, deadline time.Duration) MultiResult {
	if deadline <= 0 {
		panic("simsched: LocalAccelShared requires a flush deadline")
	}
	if b > g*n {
		b = g * n
	}
	return localAccelMulti(w, m, n, b, g, deadline, true)
}

// LocalAccelIndependent simulates the same G masters each owning a PRIVATE
// accelerator queue with sub-batch b (the pre-service topology: G
// independent NewBatchedAsync queues contending for one device). Each
// master's partial batch is pushed when it blocks (Client.Next), exactly
// like the single-game LocalAccel — to which this reduces at G=1.
func LocalAccelIndependent(w Workload, m accel.CostModel, n, b, g int) MultiResult {
	if b > n {
		b = n
	}
	return localAccelMulti(w, m, n, b, g, 0, false)
}

func localAccelMulti(w Workload, m accel.CostModel, n, b, g int, deadline time.Duration, shared bool) MultiResult {
	if n < 1 {
		panic("simsched: n must be >= 1")
	}
	if g < 1 {
		panic("simsched: g must be >= 1")
	}
	if b < 1 {
		b = 1
	}

	completions := make([]*durHeap, g)
	inflight := make([]int, g)
	submitted := make([]int, g)
	completed := make([]int, g)
	parked := make([]bool, g)
	finish := make([]time.Duration, g)
	remaining := g

	nbufs := 1
	if !shared {
		nbufs = g
	}
	bufs := make([]*simBuffer, nbufs)
	for i := range bufs {
		bufs[i] = &simBuffer{}
	}
	bufFor := func(i int) (int, *simBuffer) {
		if shared {
			return 0, bufs[0]
		}
		return i, bufs[i]
	}

	var pcieFree, gpuFree time.Duration
	batches, fillSum := 0, 0

	events := &eventHeap{}
	seq := 0
	push := func(e simEvent) {
		e.seq = seq
		seq++
		heap.Push(events, e)
	}

	launch := func(bf *simBuffer, t time.Duration) {
		if len(bf.reqs) == 0 {
			return
		}
		size := len(bf.reqs)
		xferStart := maxD(t, pcieFree)
		pcieFree = xferStart + m.TransferTime(size)
		gpuStart := maxD(pcieFree, gpuFree)
		gpuFree = gpuStart + m.ComputeTime(size)
		batches++
		fillSum += size
		for _, mi := range bf.reqs {
			heap.Push(completions[mi], gpuFree)
			if parked[mi] {
				parked[mi] = false
				// The parked master's own clock has not advanced while
				// blocked; it wakes to find the completion in its future and
				// re-waits until then via the ordinary must-wait step.
				push(simEvent{at: finish[mi], kind: 0, master: mi})
			}
		}
		bf.reqs = bf.reqs[:0]
		bf.gen++
	}

	for i := 0; i < g; i++ {
		completions[i] = &durHeap{}
		push(simEvent{at: 0, kind: 0, master: i})
	}

	// step performs ONE master action and reschedules, so concurrent
	// masters interleave in global virtual-time order — a master never
	// races ahead of a co-tenant whose earlier submission must reach the
	// shared buffer first.
	step := func(i int, t time.Duration) {
		if completed[i] >= w.Playouts {
			return // stale wake-up after finishing
		}
		// Retire one ready completion, if any.
		if completions[i].Len() > 0 && (*completions[i])[0] <= t {
			heap.Pop(completions[i])
			t += w.TBackup
			inflight[i]--
			completed[i]++
			if completed[i] >= w.Playouts {
				finish[i] = t
				remaining--
				return
			}
			push(simEvent{at: t, kind: 0, master: i})
			return
		}
		// Select and submit the next playout.
		if submitted[i] < w.Playouts && inflight[i] < n {
			t += w.TSelect
			submitted[i]++
			inflight[i]++
			bi, bf := bufFor(i)
			bf.reqs = append(bf.reqs, i)
			if len(bf.reqs) == 1 {
				bf.start = t
				if deadline > 0 {
					push(simEvent{at: t + deadline, kind: 1, buf: bi, gen: bf.gen})
				}
			}
			if len(bf.reqs) >= b {
				launch(bf, t)
			}
			push(simEvent{at: t, kind: 0, master: i})
			return
		}
		// Master must wait.
		if completions[i].Len() > 0 {
			push(simEvent{at: maxD(t, (*completions[i])[0]), kind: 0, master: i})
			return
		}
		// All of this master's outstanding requests sit in a buffer.
		if shared {
			// Deadline-driven flushing: park until the service timer fires.
			parked[i] = true
			finish[i] = t // temporarily records the parked clock
			return
		}
		// Private queue: blocking in Client.Next pushes the partial batch.
		_, bf := bufFor(i)
		launch(bf, t)
		push(simEvent{at: t, kind: 0, master: i})
	}

	for events.Len() > 0 && remaining > 0 {
		e := heap.Pop(events).(simEvent)
		switch e.kind {
		case 0:
			step(e.master, e.at)
		case 1:
			bf := bufs[e.buf]
			if bf.gen == e.gen && len(bf.reqs) > 0 {
				launch(bf, bf.start+deadline)
			}
		}
	}

	var last time.Duration
	for i := 0; i < g; i++ {
		if finish[i] > last {
			last = finish[i]
		}
	}
	res := MultiResult{
		Total:        last,
		PerIteration: last / time.Duration(g*w.Playouts),
		Batches:      batches,
	}
	if batches > 0 {
		res.AvgFill = float64(fillSum) / float64(batches)
	}
	return res
}
