package dist

import (
	"fmt"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/train"
)

// latencyEval models a fixed-latency inference device: every evaluation
// sleeps evalLatency, then returns a uniform policy. On a host with too few
// cores to show compute-parallel speedup (this repo's CI is single-core),
// self-play throughput is latency-bound — exactly the regime the
// distributed split targets, where adding workers multiplies the number of
// in-flight device calls, not the CPU demand. 3ms keeps the sleep two
// orders above the per-eval CPU work even under the race detector, so the
// measured ratio reflects overlap, not scheduler contention.
const evalLatency = 3 * time.Millisecond

type latencyEval struct{}

func (latencyEval) Evaluate(input []float32, policy []float32) float64 {
	time.Sleep(evalLatency)
	for i := range policy {
		policy[i] = 1 / float32(len(policy))
	}
	return 0
}

// measureWorkers runs n workers of identical per-worker fleet size against
// one ingest-only learner and returns aggregate playouts per second.
func measureWorkers(t *testing.T, n int) (playoutsPerSec float64, playouts int64) {
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

	const roundsPerWorker = 4
	workers := make([]*Worker, n)
	for i := range workers {
		// Every worker derives the SAME seed from its own (Seed, ID), and
		// workerSeed is an XOR, its own inverse: identical per-worker
		// workloads, so the N-worker aggregate measures pure scaling with no
		// straggler (a shorter-game worker finishing early would deflate the
		// ratio).
		id := fmt.Sprintf("w%d", i)
		wcfg := testWorkerConfig(t, id, fabric.Dialer(), workerSeed(1, id))
		wcfg.Games = 2
		wcfg.Workers = 1
		wcfg.Playouts = 8
		wcfg.Rounds = roundsPerWorker
		wcfg.NewEvaluator = func(*nn.Network) evaluate.Evaluator { return latencyEval{} }
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
	for range workers {
		st := <-done
		playouts += st.Playouts
	}
	elapsed := time.Since(start)
	learner.Stop()
	<-reportCh
	return float64(playouts) / elapsed.Seconds(), playouts
}

// TestDistributedScaling is the tentpole's acceptance bar: with a
// latency-modeled evaluator, two workers at equal per-worker fleet size
// must deliver >= 1.8x the aggregate playouts/s of one worker.
func TestDistributedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	tp1, p1 := measureWorkers(t, 1)
	tp2, p2 := measureWorkers(t, 2)
	ratio := tp2 / tp1
	t.Logf("1 worker: %d playouts at %.0f/s; 2 workers: %d playouts at %.0f/s; scaling %.2fx",
		p1, tp1, p2, tp2, ratio)
	if ratio < 1.8 {
		t.Fatalf("2-worker scaling %.2fx < required 1.8x (1w %.0f/s, 2w %.0f/s)", ratio, tp1, tp2)
	}

}
