package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/train"
)

// latencyEval models a fixed-latency inference device: every evaluation
// sleeps evalLatency, then returns a uniform policy. Self-play on it is
// latency-bound — exactly the regime the distributed split targets, where
// adding workers multiplies the number of in-flight device calls, not the
// CPU demand. With a rendezvous, each call first meets one of the other
// worker's.
const evalLatency = 3 * time.Millisecond

type latencyEval struct{ pair *rendezvous }

func (e latencyEval) Evaluate(input []float32, policy []float32) float64 {
	if e.pair != nil {
		e.pair.meet()
	}
	time.Sleep(evalLatency)
	for i := range policy {
		policy[i] = 1 / float32(len(policy))
	}
	return 0
}

// pairTimeout is how long a device call waits for the other worker's. A run
// whose calls overlap never comes near it, whatever the host's speed.
const pairTimeout = 10 * time.Second

// rendezvous pairs the device calls of two workers that each run one call at
// a time: a call waits for one from the other worker, so workers whose calls
// overlap pair every call and workers whose calls serialise pair none. Once
// a worker has finished (finished is closed) the other's last calls pass
// unpaired, as the tail. A call that waits out pairTimeout while both run is
// missed, and every later call passes at once, so a failing run ends early.
type rendezvous struct {
	mu       sync.Mutex
	waiting  chan struct{} // the call waiting for a partner, nil for none
	finished chan struct{}
	failed   chan struct{}
	fail     sync.Once

	paired, tail, missed atomic.Int64
}

func newRendezvous() *rendezvous {
	return &rendezvous{finished: make(chan struct{}), failed: make(chan struct{})}
}

func (r *rendezvous) meet() {
	r.mu.Lock()
	if partner := r.waiting; partner != nil {
		r.waiting = nil
		r.mu.Unlock()
		close(partner)
		r.paired.Add(2)
		return
	}
	met := make(chan struct{})
	r.waiting = met
	r.mu.Unlock()
	timer := time.NewTimer(pairTimeout)
	defer timer.Stop()
	outcome := &r.missed
	select {
	case <-met:
		return
	case <-r.finished:
		outcome = &r.tail
	case <-r.failed:
	case <-timer.C:
		r.fail.Do(func() { close(r.failed) })
	}
	r.mu.Lock()
	alone := r.waiting == met // else a partner took it meanwhile
	if alone {
		r.waiting = nil
	}
	r.mu.Unlock()
	if alone {
		outcome.Add(1)
	}
}

// measureWorkers runs n workers of identical per-worker fleet size against
// one ingest-only learner and returns aggregate playouts per second and the
// playouts played. With two workers, pair holds their device calls to a
// rendezvous (nil for none).
func measureWorkers(t *testing.T, n int, pair *rendezvous) (playoutsPerSec float64, playouts int64) {
	t.Helper()
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testLearnerConfig(t, t.TempDir(), 1_000_000)
	cfg.RoundGames = 2 * n
	cfg.Loop.GateEvery = 0
	cfg.Loop.MinSamples = 1 << 30 // ingest-only: no SGD, no gating — measure generation
	learner, err := NewLearner(lis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reportCh := make(chan train.LoopReport, 1)
	go func() { reportCh <- learner.Run(nil) }()

	workers := make([]*Worker, n)
	for i := range workers {
		// Every worker derives the SAME seed from its own (Seed, ID), and
		// workerSeed is an XOR, its own inverse: identical per-worker
		// workloads, so the workers make the same device calls and pair them
		// one for one, with no straggler.
		id := fmt.Sprintf("w%d", i)
		wcfg := testWorkerConfig(t, id, fabric.Dialer(), workerSeed(1, id))
		wcfg.Games = 2
		wcfg.Workers = 1 // one device call at a time per worker
		wcfg.Playouts = 8
		wcfg.Rounds = scalingRounds
		wcfg.NewEvaluator = func(*nn.Network) evaluate.Evaluator { return latencyEval{pair} }
		w, werr := NewWorker(wcfg)
		if werr != nil {
			t.Fatal(werr)
		}
		workers[i] = w
	}

	start := time.Now()
	done := make(chan WorkerStats, n)
	for _, w := range workers {
		go func(w *Worker) { done <- w.Run() }(w)
	}
	for i := range workers {
		st := <-done
		if i == 0 && pair != nil {
			close(pair.finished)
		}
		playouts += st.Playouts
	}
	elapsed := time.Since(start)
	learner.Stop()
	<-reportCh
	return float64(playouts) / elapsed.Seconds(), playouts
}

// scalingRounds is each worker's round count in TestDistributedScaling.
const scalingRounds = 4

// TestDistributedScaling: two workers' device calls overlap and do not
// serialise. Their identical workloads make the same calls, one at a time,
// and a rendezvous pairs each call with the other worker's: none may wait
// out pairTimeout while both run, and at most one round's calls of one
// worker may pass unpaired at the end. The host's speed moves none of it;
// the aggregate playouts/s of two workers over one is logged.
func TestDistributedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	tp1, p1 := measureWorkers(t, 1, nil)
	pair := newRendezvous()
	tp2, p2 := measureWorkers(t, 2, pair)
	paired, tail, missed := pair.paired.Load(), pair.tail.Load(), pair.missed.Load()
	t.Logf("1 worker: %d playouts at %.0f/s; 2 workers: %d playouts at %.0f/s; scaling %.2fx; calls paired %d, tail %d, missed %d",
		p1, tp1, p2, tp2, tp2/tp1, paired, tail, missed)
	if missed != 0 {
		t.Fatalf("%d device calls waited %v for the other worker's: the workers' calls serialise (%d paired)", missed, pairTimeout, paired)
	}
	if calls := paired + tail; paired == 0 || tail > calls/(2*scalingRounds) {
		t.Fatalf("%d of %d device calls paired, %d unpaired at the end: more than one round of one worker's", paired, calls, tail)
	}
}
