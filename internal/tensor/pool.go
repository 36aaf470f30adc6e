package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The kernels in this package parallelise across row blocks. Spawning fresh
// goroutines per call (the original design) charges every conv layer of
// every batched inference a scheduler round-trip; with five GEMMs per
// forward pass that setup cost rivals the arithmetic for small boards. A
// persistent pool amortises it: GOMAXPROCS-1 workers started on first use,
// fed jobs over an unbuffered channel, with the launching goroutine
// always participating in its own kernel so a pool of zero workers
// (single-core hosts) degrades to plain inline execution.
var (
	poolOnce    sync.Once
	poolWorkers int
	poolTasks   chan *parallelJob
)

// blockTask is a kernel launch cut into independent blocks.
type blockTask interface {
	block(i int)
}

// parallelJob is one parallelBlocks launch shared between the caller and the
// pool workers it enlisted. Jobs are pooled: sending one to a worker makes it
// escape, and a forward pass launches one per large layer.
type parallelJob struct {
	task   blockTask
	blocks int
	next   atomic.Int64
	wg     sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(parallelJob) }}

// run claims blocks from the job's counter until none are left, so an
// early-finishing participant steals the remaining ones.
func (j *parallelJob) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.blocks {
			return
		}
		j.task.block(i)
	}
}

func startPool() {
	// Size the resident pool by physical cores so a temporarily lowered
	// GOMAXPROCS at first use (e.g. `go test -cpu=1,8`) doesn't permanently
	// strand the process single-threaded; parallelBlocks caps the helpers
	// it actually engages by the *current* GOMAXPROCS on every call.
	poolWorkers = runtime.NumCPU() - 1
	if poolWorkers < 0 {
		poolWorkers = 0
	}
	// Unbuffered: a send succeeds only while a worker is actually idle on
	// the receive, so a kernel never queues jobs behind another kernel's
	// work — the select-default below has the caller absorb them instead.
	poolTasks = make(chan *parallelJob)
	for i := 0; i < poolWorkers; i++ {
		go func() {
			for j := range poolTasks {
				j.run()
				j.wg.Done()
			}
		}()
	}
}

// parallelBlocks runs task.block(i) for every i in [0, blocks), sharing the
// work between the caller and the persistent pool. If the pool is saturated
// by concurrent kernel launches the enqueue is skipped and the caller covers
// the blocks itself — correctness never depends on a worker picking the job
// up. With one block, or no worker to enlist, nothing is allocated or
// synchronised.
func parallelBlocks(blocks int, task blockTask) {
	if blocks <= 0 {
		return
	}
	poolOnce.Do(startPool)
	helpers := min(poolWorkers, runtime.GOMAXPROCS(0)-1, blocks-1)
	if helpers <= 0 {
		for i := 0; i < blocks; i++ {
			task.block(i)
		}
		return
	}
	j := jobPool.Get().(*parallelJob)
	j.task, j.blocks = task, blocks
	j.next.Store(0)
	for w := 0; w < helpers; w++ {
		j.wg.Add(1)
		select {
		case poolTasks <- j:
		default:
			j.wg.Done() // pool busy with another kernel; caller absorbs the work
		}
	}
	j.run()
	j.wg.Wait()
	j.task = nil
	jobPool.Put(j)
}
