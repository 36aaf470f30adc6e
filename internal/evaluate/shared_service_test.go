package evaluate_test

import (
	"sync"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/mcts"
)

const sharedInfGames, sharedInfWorkers = 8, 8 // G searches of N evaluations in flight

func sharedInfLink() *accel.Link {
	c, h, w := gomoku.NewSized(9).EncodedShape()
	cost := accel.DefaultCostModel()
	cost.BytesPerSample = c * h * w * 4
	link, err := accel.NewBackend("model", accel.BackendSpec{Cost: cost})
	if err != nil {
		panic(err) // "model" is registered by the accel package itself
	}
	return link
}

// tenantFleet is G Gomoku local-tree masters and the accelerator queues they
// search through, on one simulated accelerator: one shared server of
// threshold G·N, or one private server of threshold N per master. The shared service aggregates the tenants' demand into fuller
// batches (fewer launches, amortized launch latency).
type tenantFleet struct {
	engines []*mcts.Local
	clients []*evaluate.Client
	servers []*evaluate.Server
}

func newTenantFleet(shared bool) *tenantFleet {
	link := sharedInfLink()
	f := &tenantFleet{}
	if shared {
		f.servers = append(f.servers, evaluate.NewServer(link, evaluate.ServerConfig{
			Batch:          sharedInfGames * sharedInfWorkers,
			MaxOutstanding: 2 * sharedInfGames * sharedInfWorkers,
		}))
	}
	for i := 0; i < sharedInfGames; i++ {
		if !shared {
			f.servers = append(f.servers, evaluate.NewServer(link, evaluate.ServerConfig{Batch: sharedInfWorkers, MaxOutstanding: 2 * sharedInfWorkers}))
		}
		cl := f.servers[len(f.servers)-1].NewSyncClient()
		cfg := mcts.DefaultConfig()
		cfg.Playouts = 128
		cfg.Seed = uint64(i + 1)
		f.clients = append(f.clients, cl)
		f.engines = append(f.engines, mcts.NewLocal(cfg, cl, sharedInfWorkers))
	}
	return f
}

// move runs one move on every engine concurrently and returns the aggregate
// playouts completed.
func (f *tenantFleet) move() int {
	st := gomoku.NewSized(9).NewInitial()
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for _, e := range f.engines {
		wg.Add(1)
		go func(e *mcts.Local) {
			defer wg.Done()
			stats := e.Search(st, make([]float32, st.NumActions()))
			mu.Lock()
			total += stats.Playouts
			mu.Unlock()
		}(e)
	}
	wg.Wait()
	return total
}

// close closes every client and server and returns their summed launch and
// request counts.
func (f *tenantFleet) close() evaluate.ServerStats {
	for _, cl := range f.clients {
		cl.Close()
	}
	var total evaluate.ServerStats
	for _, srv := range f.servers {
		srv.Close()
		st := srv.Stats()
		total.Batches += st.Batches
		total.Requests += st.Requests
	}
	return total
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

// TestSharedServiceBeatsIndependentQueues: G=8 concurrent searches through
// one shared server must launch fuller batches and cost the simulated
// accelerator less time than 8 independent accelerator queues. Accelerator
// time is counted from the cost model over the launches, not read off a
// clock, so the verdict holds under -race.
func TestSharedServiceBeatsIndependentQueues(t *testing.T) {
	run := func(shared bool) evaluate.ServerStats {
		f := newTenantFleet(shared)
		// One warm-up round and three more.
		for r := 0; r < 4; r++ {
			f.move()
		}
		return f.close()
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

// BenchmarkSharedInferenceG8 records the wall-clock magnitude of the same
// comparison: aggregate playouts/s and average batch fill of the 8 masters
// as tenants of one server (shared) and each on its own queue (independent).
func BenchmarkSharedInferenceG8(b *testing.B) {
	for _, leg := range []struct {
		name   string
		shared bool
	}{{"shared", true}, {"independent", false}} {
		b.Run(leg.name, func(b *testing.B) {
			f := newTenantFleet(leg.shared)
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += f.move()
			}
			b.StopTimer()
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "playouts/s")
			b.ReportMetric(f.close().AvgFill(), "avg-fill")
		})
	}
}
