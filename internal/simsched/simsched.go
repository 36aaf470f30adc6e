// Package simsched is a deterministic discrete-event simulator of the two
// tree-parallel execution timelines (Figures 1b and 2b of the paper). It
// replays the schemes' scheduling structure — serialized shared-memory
// access, master-thread in-tree loops, FIFO hand-off to inference workers,
// sub-batch accelerator launches on overlapping streams — in virtual time,
// driven by the same design-time profile the analytic models consume: every
// timeline takes a perfmodel.Params (the accelerator ones read its GPU cost
// model) and the number of playouts in the simulated move. The simulator
// holds no launch condition of its own: every accelerator or inference-thread
// launch is a batch that evaluate's launch rule (evaluate.Rule, the rule an
// evaluate.Server steps) hands back.
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
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
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

// SharedCPU simulates Algorithm 2 on a CPU: N worker threads, each
// iteration paying one serialized shared-memory access (the root-level
// communication of Figure 1b), then its own selection, inference, and
// backup.
func SharedCPU(p perfmodel.Params, playouts, n int) Result {
	if n < 1 {
		panic("simsched: n must be >= 1")
	}
	// Every iteration ends later than the one before it, so the earliest
	// free worker is always the one that took the iteration n before.
	workers := make([]time.Duration, n)
	var lockFree, last time.Duration
	for i := 0; i < playouts; i++ {
		// Serialized shared-tree access (virtual-loss update at the root).
		lockFree = max(workers[i%n], lockFree) + p.TSharedAccess
		// Parallel portion: selection + inference + backup on own thread.
		last = lockFree + p.TSelect + p.TDNNCPU + p.TBackup
		workers[i%n] = last
	}
	return result(last, playouts, 0)
}

// LocalCPU simulates Algorithm 3 on a CPU: the master thread performs all
// in-tree operations sequentially and hands evaluations to a pool of n
// inference threads, waiting when all n are busy. It is the local master
// loop at threshold 1, as adaptive builds the CPU local scheme: every
// submission launches at once on the earliest-free thread.
func LocalCPU(p perfmodel.Params, playouts, n int) Result {
	if n < 1 {
		panic("simsched: n must be >= 1")
	}
	total, _ := local(p, playouts, n, 1, threads(p, n))
	return result(total, playouts, 0)
}

// threads is the CPU's launch: n inference threads, each request on the
// earliest-free one. Requests arrive in order and take equally long, so that
// is the thread the request n before took.
func threads(p perfmodel.Params, n int) launcher {
	free := make([]time.Duration, n)
	i := 0
	return func(at time.Duration, _ int) time.Duration {
		t := &free[i%n]
		i++
		*t = max(at, *t) + p.TDNNCPU
		return *t
	}
}

// SharedAccel simulates Algorithm 2 with inference offloaded to the
// accelerator in batches of n: the n workers' serialized accesses and
// selections submit into a rule of threshold n, the batch departs when the
// last of them arrives, and all its workers resume together, backing up
// under the lock (Section 3.3's shared-tree configuration). Workers with no
// playout left leave the quorum, so the last round launches short.
func SharedAccel(p perfmodel.Params, playouts, n int) Result {
	if n < 1 {
		panic("simsched: n must be >= 1")
	}
	return shared(p, playouts, n, device(p))
}

// shared is SharedAccel's timeline over launch.
func shared(p perfmodel.Params, playouts, n int, launch launcher) Result {
	rule := evaluate.NewRule(n)
	rule.Begin(n)
	reqs := make([]evaluate.Request, n)
	workers := make([]time.Duration, n)
	var lockFree, last time.Duration
	batches := 0
	for done := 0; done < playouts; batches++ {
		if idle := n - (playouts - done); idle > 0 {
			rule.End(idle)
		}
		var batch []*evaluate.Request
		var arrival time.Duration
		for i := 0; batch == nil; i++ {
			lockFree = max(workers[i], lockFree) + p.TSharedAccess
			workers[i] = lockFree + p.TSelect
			arrival = max(arrival, workers[i])
			batch = rule.Submit(&reqs[i])
		}
		end := launch(arrival, len(batch))
		for i := range batch {
			lockFree = max(end, lockFree) + p.TSharedAccess
			workers[i] = lockFree + p.TBackup
			last = max(last, workers[i])
		}
		done += len(batch)
	}
	return result(last, playouts, batches)
}

// LocalAccel simulates Algorithm 3 with inference offloaded in sub-batches
// of size b on overlapping streams (Section 3.3): the master keeps
// selecting while at most n evaluations are outstanding, each sub-batch
// launches a transfer (PCIe serialized) followed by a kernel (GPU compute
// serialized), and completions return to the master for backup. This is the
// timeline whose per-iteration latency over b forms the V-sequence that
// Algorithm 4 searches.
func LocalAccel(p perfmodel.Params, playouts, n, b int) Result {
	if n < 1 {
		panic("simsched: n must be >= 1")
	}
	total, batches := local(p, playouts, n, min(max(b, 1), n), device(p))
	return result(total, playouts, batches)
}

// launcher starts a batch of size at time at and returns when it completes.
type launcher func(at time.Duration, size int) time.Duration

// device is the accelerator's launch: a batch of size departing at `at`
// transfers once PCIe is free and computes once the GPU is; it returns when
// the batch completes.
func device(p perfmodel.Params) launcher {
	var pcieFree, gpuFree time.Duration
	return func(at time.Duration, size int) time.Duration {
		pcieFree = max(at, pcieFree) + p.GPU.TransferTime(size)
		gpuFree = max(pcieFree, gpuFree) + p.GPU.ComputeTime(size)
		return gpuFree
	}
}

// local is Algorithm 3's master loop over n rollout contexts, as
// mcts.Local.run drives it: it selects and submits while fewer than n
// evaluations are outstanding, first backing up those already complete;
// otherwise it gives back the contexts a spent budget left idle and waits
// for the oldest evaluation, which the threshold or the quorum has launched
// by then: the master holds slots, so its wait pushes nothing. An
// evaluate.Rule of threshold b decides every launch, and launch starts the
// batch it hands back at the master's time and returns when that batch
// completes. local returns the master's finish time and the number of
// launches.
func local(p perfmodel.Params, playouts, n, b int, launch launcher) (time.Duration, int) {
	rule := evaluate.NewRule(b)
	rule.Begin(n)
	held := n                           // contexts still in the quorum
	reqs := make([]evaluate.Request, n) // request s rides in context s mod n
	// Launches are FIFO and complete in order: done[s] is request s's
	// completion, and the oldest outstanding request is the next to finish.
	done := make([]time.Duration, 0, playouts)
	var master time.Duration
	submitted, completed, batches := 0, 0, 0
	start := func(batch []*evaluate.Request) {
		if batch == nil {
			return
		}
		end := launch(master, len(batch))
		for range batch {
			done = append(done, end)
		}
		batches++
	}
	for completed < playouts {
		for completed < len(done) && done[completed] <= master {
			master += p.TBackup
			completed++
		}
		if completed >= playouts {
			break
		}
		inflight := submitted - completed
		if submitted < playouts && inflight < n {
			master += p.TSelect
			start(rule.Submit(&reqs[submitted%n]))
			submitted++
			continue
		}
		if idle := held - inflight; idle > 0 {
			start(rule.End(idle))
			held = inflight
		}
		master = max(master, done[completed]) + p.TBackup
		completed++
	}
	return master, batches
}
