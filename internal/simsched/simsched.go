// Package simsched is a deterministic discrete-event simulator of the two
// tree-parallel execution timelines (Figures 1b and 2b of the paper). It
// replays the schemes' scheduling structure — serialized shared-memory
// access, master-thread in-tree loops, FIFO hand-off to inference workers,
// sub-batch accelerator launches on overlapping streams — in virtual time,
// driven by the same design-time profile the analytic models consume: every
// timeline takes a perfmodel.Params (the accelerator ones read its GPU cost
// model) and the number of playouts in the simulated move.
//
// The paper measured Figures 3-5 on a 64-core Threadripper + A6000. This
// reproduction runs wherever `go test` runs, so wall-clock re-measurement
// of 64-way parallelism is not generally possible; the simulator provides
// the faithful substitute: the schemes' relative shapes (who wins at which
// N, where the batch-size V bottoms out) emerge from simulated contention
// rather than from evaluating the closed-form Equations 3-6, which remain
// available in internal/perfmodel as the coarser compile-time predictor.
package simsched

import (
	"container/heap"
	"time"

	"github.com/parmcts/parmcts/internal/perfmodel"
)

// Result reports one simulated move.
type Result struct {
	Total        time.Duration // virtual time to finish all playouts
	PerIteration time.Duration // Total / Playouts (the paper's metric)
	Batches      int           // accelerator launches (0 on CPU)
}

func result(total time.Duration, playouts, batches int) Result {
	return Result{
		Total:        total,
		PerIteration: total / time.Duration(playouts),
		Batches:      batches,
	}
}

// durHeap is a min-heap of completion times.
type durHeap []time.Duration

func (h durHeap) Len() int            { return len(h) }
func (h durHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h durHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *durHeap) Push(x interface{}) { *h = append(*h, x.(time.Duration)) }
func (h *durHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// maxD returns the larger duration.
func maxD(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// SharedCPU simulates Algorithm 2 on a CPU: N worker threads, each
// iteration paying one serialized shared-memory access (the root-level
// communication of Figure 1b), then its own selection, inference, and
// backup.
func SharedCPU(p perfmodel.Params, playouts, n int) Result {
	if n < 1 {
		panic("simsched: n must be >= 1")
	}
	workers := make(durHeap, n) // each worker's free time; all start at 0
	heap.Init(&workers)
	var lockFree time.Duration
	var last time.Duration
	for i := 0; i < playouts; i++ {
		t := heap.Pop(&workers).(time.Duration)
		// Serialized shared-tree access (virtual-loss update at the root).
		start := maxD(t, lockFree)
		lockFree = start + p.TSharedAccess
		// Parallel portion: selection + inference + backup on own thread.
		end := lockFree + p.TSelect + p.TDNNCPU + p.TBackup
		heap.Push(&workers, end)
		if end > last {
			last = end
		}
	}
	return result(last, playouts, 0)
}

// LocalCPU simulates Algorithm 3 on a CPU: the master thread performs all
// in-tree operations sequentially and hands evaluations to a pool of n
// inference threads through FIFO pipes, waiting when all n are busy.
func LocalCPU(p perfmodel.Params, playouts, n int) Result {
	if n < 1 {
		panic("simsched: n must be >= 1")
	}
	servers := make(durHeap, n) // inference threads' free times
	heap.Init(&servers)
	var master time.Duration
	completions := &durHeap{}
	inflight := 0
	submitted, completed := 0, 0
	for completed < playouts {
		// Drain evaluations that have already finished.
		for completions.Len() > 0 && (*completions)[0] <= master {
			heap.Pop(completions)
			master += p.TBackup
			inflight--
			completed++
		}
		if completed >= playouts {
			break
		}
		if submitted < playouts && inflight < n {
			master += p.TSelect
			// Dispatch to the earliest-free inference thread.
			free := heap.Pop(&servers).(time.Duration)
			start := maxD(master, free)
			end := start + p.TDNNCPU
			heap.Push(&servers, end)
			heap.Push(completions, end)
			submitted++
			inflight++
			continue
		}
		// Master must wait for the next completion.
		t := heap.Pop(completions).(time.Duration)
		master = maxD(master, t) + p.TBackup
		inflight--
		completed++
	}
	return result(master, playouts, 0)
}

// SharedAccel simulates Algorithm 2 with inference offloaded to the
// accelerator using full batches of size n: the n parallel selections
// arrive nearly simultaneously, the batch transfers and computes, and all
// n workers resume together (Section 3.3's shared-tree configuration).
func SharedAccel(p perfmodel.Params, playouts, n int) Result {
	if n < 1 {
		panic("simsched: n must be >= 1")
	}
	workers := make([]time.Duration, n)
	var lockFree, pcieFree, gpuFree, last time.Duration
	batches := 0
	remaining := playouts
	for remaining > 0 {
		round := n
		if remaining < round {
			round = remaining // final partial batch (drain-on-retire)
		}
		// Each of the round's workers does its serialized access + select.
		var latestArrival time.Duration
		for i := 0; i < round; i++ {
			start := maxD(workers[i], lockFree)
			lockFree = start + p.TSharedAccess
			ready := lockFree + p.TSelect
			workers[i] = ready
			if ready > latestArrival {
				latestArrival = ready
			}
		}
		// Batch departs when the last worker's request arrives.
		xferStart := maxD(latestArrival, pcieFree)
		pcieFree = xferStart + p.GPU.TransferTime(round)
		gpuStart := maxD(pcieFree, gpuFree)
		gpuFree = gpuStart + p.GPU.ComputeTime(round)
		batches++
		// All workers resume at batch completion, then back up under locks.
		for i := 0; i < round; i++ {
			start := maxD(gpuFree, lockFree)
			lockFree = start + p.TSharedAccess
			workers[i] = lockFree + p.TBackup
			if workers[i] > last {
				last = workers[i]
			}
		}
		remaining -= round
	}
	return result(last, playouts, batches)
}

// LocalAccel simulates Algorithm 3 with inference offloaded in sub-batches
// of size b on overlapping streams (Section 3.3): the master keeps
// selecting while at most n evaluations are outstanding; every b
// submissions launch a transfer (PCIe serialized) followed by a kernel
// (GPU compute serialized); completions return to the master for backup.
// This is the timeline whose per-iteration latency over b forms the
// V-sequence that Algorithm 4 searches.
func LocalAccel(p perfmodel.Params, playouts, n, b int) Result {
	if n < 1 {
		panic("simsched: n must be >= 1")
	}
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	var master, pcieFree, gpuFree time.Duration
	completions := &durHeap{}
	buffered := 0
	inflight := 0
	submitted, completed := 0, 0
	batches := 0
	launch := func(at time.Duration, size int) {
		if size == 0 {
			return
		}
		xferStart := maxD(at, pcieFree)
		pcieFree = xferStart + p.GPU.TransferTime(size)
		gpuStart := maxD(pcieFree, gpuFree)
		gpuFree = gpuStart + p.GPU.ComputeTime(size)
		batches++
		for i := 0; i < size; i++ {
			heap.Push(completions, gpuFree)
		}
	}
	for completed < playouts {
		for completions.Len() > 0 && (*completions)[0] <= master {
			heap.Pop(completions)
			master += p.TBackup
			inflight--
			completed++
		}
		if completed >= playouts {
			break
		}
		if submitted < playouts && inflight < n {
			master += p.TSelect
			submitted++
			inflight++
			buffered++
			if buffered == b {
				launch(master, buffered)
				buffered = 0
			}
			continue
		}
		if completions.Len() == 0 {
			// Everything outstanding is sitting in the partial batch:
			// flush it or wait forever (what Client.Wait does before it blocks).
			launch(master, buffered)
			buffered = 0
			continue
		}
		t := heap.Pop(completions).(time.Duration)
		master = maxD(master, t) + p.TBackup
		inflight--
		completed++
	}
	return result(master, playouts, batches)
}
