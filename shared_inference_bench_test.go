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

// acceleratorTime is the device time the "model" link spends on the launches
// st counts: the sum of TransferTime(b)+ComputeTime(b) over the launched
// batch sizes b. Both costs are affine in b, so the launch and request
// counts determine it.
func acceleratorTime(m accel.CostModel, st evaluate.ServerStats) time.Duration {
	perLaunch := m.TransferTime(0) + m.ComputeTime(0)
	return time.Duration(st.Batches)*perLaunch + time.Duration(st.Requests)*m.ComputePerSample +
		m.BandwidthTime(int(st.Requests))
}

// TestSharedServiceBeatsIndependentQueues pins the acceptance criterion in
// a plain test (the benchmarks record the wall-clock magnitude): G=8
// concurrent searches through one shared server must launch fuller batches
// and cost the simulated accelerator less time than 8 independent
// accelerator queues. Accelerator time is counted from the cost model over
// the launches, not read off a clock, so the verdict holds under -race.
func TestSharedServiceBeatsIndependentQueues(t *testing.T) {
	run := func(shared bool) evaluate.ServerStats {
		link := sharedInfLink()
		engines := make([]*mcts.Local, sharedInfGames)
		var servers []*evaluate.Server
		var clients []*evaluate.Client
		if shared {
			srv := evaluate.NewServer(link, evaluate.ServerConfig{
				Batch:          sharedInfGames * sharedInfWorkers,
				FlushDeadline:  evaluate.DefaultFlushDeadline,
				MaxOutstanding: 2 * sharedInfGames * sharedInfWorkers,
			})
			servers = append(servers, srv)
			for range engines {
				clients = append(clients, srv.NewSyncClient())
			}
		} else {
			for range engines {
				clients = append(clients, newIndependentQueue(link))
				servers = append(servers, clients[len(clients)-1].Server())
			}
		}
		for i := range engines {
			engines[i] = mcts.NewLocal(sharedInfConfig(uint64(i+1)), clients[i], sharedInfWorkers)
		}
		// One warm-up round and three more, as the benchmarks run them.
		for r := 0; r < 4; r++ {
			runConcurrentSearches(engines)
		}
		for _, cl := range clients {
			cl.Close()
		}
		var total evaluate.ServerStats
		for _, srv := range servers {
			srv.Close()
			st := srv.Stats()
			total.Batches += st.Batches
			total.Requests += st.Requests
		}
		return total
	}

	cost := sharedInfLink().Cost
	indep, shared := run(false), run(true)
	indepTime, sharedTime := acceleratorTime(cost, indep), acceleratorTime(cost, shared)
	t.Logf("shared: %d requests in %d launches (avg fill %.1f), accelerator %v; independent: %d in %d (avg fill %.1f), accelerator %v",
		shared.Requests, shared.Batches, shared.AvgFill(), sharedTime,
		indep.Requests, indep.Batches, indep.AvgFill(), indepTime)
	if shared.AvgFill() <= indep.AvgFill() {
		t.Fatalf("shared service did not raise batch fill: %.1f vs %.1f", shared.AvgFill(), indep.AvgFill())
	}
	if sharedTime >= indepTime {
		t.Fatalf("shared service costs the accelerator more: %v vs %v", sharedTime, indepTime)
	}
}
