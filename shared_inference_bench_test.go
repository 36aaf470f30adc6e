package parmcts_test

// Acceptance benchmarks for the multi-tenant inference service: G=8
// concurrent Gomoku searches sharing ONE evaluate.Server versus the same 8
// searches each owning an independent accelerator queue (a private
// deadline-less Server of threshold N) on the same simulated accelerator. The shared service aggregates the tenants' demand into large
// batches (fewer launches, amortized launch latency), which is the
// refactor's whole claim; the recorded numbers are in EXPERIMENTS.md.

import (
	"sync"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/mcts"
)

const (
	sharedInfGames    = 8   // G concurrent searches
	sharedInfWorkers  = 8   // N in-flight evaluations per master
	sharedInfPlayouts = 128 // per-move budget per search
)

func sharedInfLink() *accel.Link {
	g := gomoku.NewSized(9)
	c, h, w := g.EncodedShape()
	cost := accel.DefaultCostModel()
	cost.BytesPerSample = c * h * w * 4
	link, err := accel.NewBackend("model", accel.BackendSpec{Cost: cost})
	if err != nil {
		panic(err) // "model" is registered by the accel package itself
	}
	return link
}

// newIndependentQueue is one master's private accelerator queue: a Server of
// threshold N with no flush deadline and its one client.
func newIndependentQueue(link *accel.Link) *evaluate.Client {
	srv := evaluate.NewServer(link, evaluate.ServerConfig{Batch: sharedInfWorkers, MaxOutstanding: 2 * sharedInfWorkers})
	return srv.NewSyncClient()
}

func sharedInfConfig(seed uint64) mcts.Config {
	cfg := mcts.DefaultConfig()
	cfg.Playouts = sharedInfPlayouts
	cfg.Seed = seed
	return cfg
}

// runConcurrentSearches runs one move on every engine concurrently and
// returns the aggregate playouts completed.
func runConcurrentSearches(engines []*mcts.Local) int {
	g := gomoku.NewSized(9)
	st := g.NewInitial()
	var wg sync.WaitGroup
	total := 0
	var mu sync.Mutex
	for _, e := range engines {
		wg.Add(1)
		go func(e *mcts.Local) {
			defer wg.Done()
			dist := make([]float32, st.NumActions())
			stats := e.Search(st, dist)
			mu.Lock()
			total += stats.Playouts
			mu.Unlock()
		}(e)
	}
	wg.Wait()
	return total
}

// BenchmarkSharedInferenceG8 is the tentpole configuration: 8 local-tree
// masters as tenants of one deadline-flushing server with aggregate batch
// threshold G*N.
func BenchmarkSharedInferenceG8(b *testing.B) {
	srv := evaluate.NewServer(sharedInfLink(), evaluate.ServerConfig{
		Batch:          sharedInfGames * sharedInfWorkers,
		FlushDeadline:  evaluate.DefaultFlushDeadline,
		MaxOutstanding: 2 * sharedInfGames * sharedInfWorkers,
	})
	engines := make([]*mcts.Local, sharedInfGames)
	clients := make([]*evaluate.Client, sharedInfGames)
	for i := range engines {
		clients[i] = srv.NewSyncClient()
		engines[i] = mcts.NewLocal(sharedInfConfig(uint64(i+1)), clients[i], sharedInfWorkers)
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
		srv.Close()
	}()

	b.ResetTimer()
	start := time.Now()
	total := 0
	for i := 0; i < b.N; i++ {
		total += runConcurrentSearches(engines)
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(total)/elapsed.Seconds(), "playouts/s")
	b.ReportMetric(srv.Stats().AvgFill(), "avg-fill")
}

// BenchmarkIndependentInferenceG8 is the pre-refactor baseline: the same 8
// masters, each with a private accelerator queue (sub-batch N) contending
// for the same simulated accelerator — G under-filled batch streams.
func BenchmarkIndependentInferenceG8(b *testing.B) {
	link := sharedInfLink()
	engines := make([]*mcts.Local, sharedInfGames)
	asyncs := make([]*evaluate.Client, sharedInfGames)
	for i := range engines {
		asyncs[i] = newIndependentQueue(link)
		engines[i] = mcts.NewLocal(sharedInfConfig(uint64(i+1)), asyncs[i], sharedInfWorkers)
	}
	defer func() {
		for _, a := range asyncs {
			a.Close()
			a.Server().Close()
		}
	}()

	b.ResetTimer()
	start := time.Now()
	total := 0
	batches, requests := int64(0), int64(0)
	for i := 0; i < b.N; i++ {
		total += runConcurrentSearches(engines)
	}
	for _, a := range asyncs {
		st := a.Server().Stats()
		batches += st.Batches
		requests += st.Requests
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(total)/elapsed.Seconds(), "playouts/s")
	if batches > 0 {
		b.ReportMetric(float64(requests)/float64(batches), "avg-fill")
	}
}

// TestSharedServiceBeatsIndependentQueues pins the acceptance criterion in
// a plain test (the benchmark records the magnitude): G=8 concurrent
// searches through one shared server must complete their aggregate
// playouts faster than 8 independent accelerator queues on the same
// simulated accelerator.
func TestSharedServiceBeatsIndependentQueues(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	run := func(shared bool) (time.Duration, float64) {
		link := sharedInfLink()
		engines := make([]*mcts.Local, sharedInfGames)
		var closers []func()
		var fill func() float64
		if shared {
			srv := evaluate.NewServer(link, evaluate.ServerConfig{
				Batch:          sharedInfGames * sharedInfWorkers,
				FlushDeadline:  evaluate.DefaultFlushDeadline,
				MaxOutstanding: 2 * sharedInfGames * sharedInfWorkers,
			})
			for i := range engines {
				cl := srv.NewSyncClient()
				engines[i] = mcts.NewLocal(sharedInfConfig(uint64(i+1)), cl, sharedInfWorkers)
				closers = append(closers, cl.Close)
			}
			closers = append(closers, srv.Close)
			fill = func() float64 { return srv.Stats().AvgFill() }
		} else {
			var batches, requests int64
			for i := range engines {
				a := newIndependentQueue(link)
				engines[i] = mcts.NewLocal(sharedInfConfig(uint64(i+1)), a, sharedInfWorkers)
				closers = append(closers, func() {
					st := a.Server().Stats()
					batches += st.Batches
					requests += st.Requests
					a.Close()
					a.Server().Close()
				})
			}
			fill = func() float64 {
				if batches == 0 {
					return 0
				}
				return float64(requests) / float64(batches)
			}
		}
		// One warm-up round, then three timed rounds.
		runConcurrentSearches(engines)
		start := time.Now()
		for r := 0; r < 3; r++ {
			runConcurrentSearches(engines)
		}
		elapsed := time.Since(start)
		for _, c := range closers {
			c()
		}
		return elapsed, fill()
	}

	indepTime, indepFill := run(false)
	sharedTime, sharedFill := run(true)
	t.Logf("shared: %v (avg fill %.1f) vs independent: %v (avg fill %.1f)",
		sharedTime, sharedFill, indepTime, indepFill)
	if sharedFill <= indepFill {
		t.Fatalf("shared service did not raise batch fill: %.1f vs %.1f", sharedFill, indepFill)
	}
	if sharedTime >= indepTime {
		t.Fatalf("shared service slower on aggregate playouts: %v vs %v", sharedTime, indepTime)
	}
}
