package evaluate_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/mcts"
)

// farDeadline is a flush deadline no passing quorum test can afford to wait
// for even once: a launch that falls back to it fails the test's own clock.
const farDeadline = 10 * time.Second

// gateBackend records batch sizes and, while hold is non-nil, keeps each
// batch executing until a token arrives on it.
type gateBackend struct {
	mu    sync.Mutex
	sizes []int
	hold  chan struct{}
}

func (b *gateBackend) RunBatch(batch []*evaluate.Request) {
	b.mu.Lock()
	b.sizes = append(b.sizes, len(batch))
	b.mu.Unlock()
	if b.hold != nil {
		<-b.hold
	}
	for _, req := range batch {
		req.Value = float64(len(batch))
	}
}

func (b *gateBackend) batches() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.sizes...)
}

// within fails the test unless f returns inside d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v: a launch waited for the flush deadline", what, d)
	}
}

// waitPending polls until the server buffers exactly n requests.
func waitPending(t *testing.T, srv *evaluate.Server, n int) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); srv.Pending() != n; {
		if time.Now().After(end) {
			t.Fatalf("pending = %d, want %d", srv.Pending(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestQuorumTenantsNeverWaitForDeadline: two registered one-request tenants
// on a Batch-8 server complete every round trip by quorum.
func TestQuorumTenantsNeverWaitForDeadline(t *testing.T) {
	srv := evaluate.NewServer(&gateBackend{}, evaluate.ServerConfig{Batch: 8, FlushDeadline: farDeadline})
	defer srv.Close()
	const tenants, trips = 2, 200
	within(t, farDeadline/2, "400 round trips", func() {
		var wg sync.WaitGroup
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := srv.NewSyncClient()
				cl.BeginSearch(1)
				in, pol := make([]float32, 4), make([]float32, 2)
				for r := 0; r < trips; r++ {
					cl.Evaluate(in, pol)
				}
				cl.EndSearch(1)
			}()
		}
		wg.Wait()
	})
	st := srv.Stats()
	if st.DeadlineFlushes != 0 || st.ThresholdFlushes != 0 {
		t.Fatalf("stats %+v: want quorum flushes only", st)
	}
	if st.QuorumFlushes != st.Batches || st.Requests != tenants*trips {
		t.Fatalf("stats %+v: every batch should be a quorum flush, %d requests", st, tenants*trips)
	}
}

// TestQuorumThinkingTenantFallsBackToDeadline: a tenant that has begun its
// search but is busy elsewhere keeps the quorum unmet, and the deadline —
// the backstop — launches the others' buffer.
func TestQuorumThinkingTenantFallsBackToDeadline(t *testing.T) {
	const deadline = 30 * time.Millisecond
	srv := evaluate.NewServer(&gateBackend{}, evaluate.ServerConfig{Batch: 8, FlushDeadline: deadline})
	defer srv.Close()
	a, b := srv.NewSyncClient(), srv.NewSyncClient()
	a.BeginSearch(1)
	b.BeginSearch(1) // thinking: never submits
	start := time.Now()
	a.Evaluate(make([]float32, 4), make([]float32, 2))
	if waited := time.Since(start); waited < deadline/2 {
		t.Fatalf("launched after %v with a registered tenant still to submit", waited)
	}
	if st := srv.Stats(); st.DeadlineFlushes != 1 || st.QuorumFlushes != 0 || st.Batches != 1 {
		t.Fatalf("stats %+v: want exactly one deadline flush", st)
	}
	a.EndSearch(1)
	b.EndSearch(1)
}

// TestQuorumEndSearchLaunchesBuffer: when the last tenant that could still
// submit ends its search, the buffer it was holding up launches at once.
func TestQuorumEndSearchLaunchesBuffer(t *testing.T) {
	srv := evaluate.NewServer(&gateBackend{}, evaluate.ServerConfig{Batch: 8, FlushDeadline: farDeadline})
	defer srv.Close()
	a, b := srv.NewSyncClient(), srv.NewSyncClient()
	a.BeginSearch(1)
	b.BeginSearch(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Evaluate(make([]float32, 4), make([]float32, 2))
	}()
	waitPending(t, srv, 1)
	b.EndSearch(1)
	within(t, farDeadline/2, "the buffered tenant", func() { <-done })
	a.EndSearch(1)
	if st := srv.Stats(); st.QuorumFlushes != 1 || st.DeadlineFlushes != 0 {
		t.Fatalf("stats %+v: want one quorum flush", st)
	}
}

// TestQuorumCountsExecutingSlots is the anti-fragmentation property: a
// request buffered while another tenant's batch executes is not launched
// alone — the executing tenant still counts — and merges with that tenant's
// next request.
func TestQuorumCountsExecutingSlots(t *testing.T) {
	backend := &gateBackend{hold: make(chan struct{}, 4)}
	srv := evaluate.NewServer(backend, evaluate.ServerConfig{Batch: 8, FlushDeadline: farDeadline})
	defer srv.Close()
	a, b := srv.NewSyncClient(), srv.NewSyncClient()
	in, pol := make([]float32, 4), make([]float32, 2)

	a.BeginSearch(1)
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		a.Evaluate(in, pol) // alone in the quorum: launches as a batch of 1
		a.Evaluate(in, pol) // must find b's request waiting and join it
		a.EndSearch(1)
	}()
	for len(backend.batches()) != 1 {
		time.Sleep(100 * time.Microsecond)
	}

	b.BeginSearch(1)
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		b.Evaluate(in, make([]float32, 2))
		b.EndSearch(1)
	}()
	waitPending(t, srv, 1)
	time.Sleep(20 * time.Millisecond) // room for a wrong early launch to happen
	if got := backend.batches(); len(got) != 1 || srv.Pending() != 1 {
		t.Fatalf("batches %v, pending %d: b's request was launched while a's batch executes", got, srv.Pending())
	}

	backend.hold <- struct{}{} // a's first batch completes; a comes back
	backend.hold <- struct{}{} // and the merged batch may run
	within(t, farDeadline/2, "the merged batch", func() { <-aDone; <-bDone })
	if got := backend.batches(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("batches %v, want [1 2]", got)
	}
	if st := srv.Stats(); st.DeadlineFlushes != 0 {
		t.Fatalf("stats %+v: no launch should have waited for the deadline", st)
	}
}

// TestQuorumSearchTails: multi-context engines over a shared deadline server
// finish a budget that is not a multiple of their width without the deadline
// — workers out of tickets and a master out of budget leave the quorum.
func TestQuorumSearchTails(t *testing.T) {
	g := gomoku.NewSized(7)
	cfg := mcts.DefaultConfig()
	cfg.Playouts = 37
	cfg.Seed = 11
	backend := func() evaluate.Backend {
		return &evaluate.EvaluatorBackend{Eval: &evaluate.Random{}, Workers: 2}
	}
	server := func() *evaluate.Server {
		return evaluate.NewServer(backend(), evaluate.ServerConfig{Batch: 8, FlushDeadline: farDeadline})
	}
	engines := map[string]func(*evaluate.Server) (mcts.Engine, *evaluate.Client){
		"shared4": func(srv *evaluate.Server) (mcts.Engine, *evaluate.Client) {
			cl := srv.NewSyncClient()
			return mcts.NewShared(cfg, 4, cl), cl
		},
		"local4": func(srv *evaluate.Server) (mcts.Engine, *evaluate.Client) {
			cl := srv.NewSyncClient()
			return mcts.NewLocal(cfg, cl, 4), cl
		},
		"serial": func(srv *evaluate.Server) (mcts.Engine, *evaluate.Client) {
			cl := srv.NewSyncClient()
			return mcts.NewSerial(cfg, cl), cl
		},
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			srv := server()
			eng, cl := mk(srv)
			st := g.NewInitial()
			dist := make([]float32, st.NumActions())
			within(t, farDeadline/2, "two searches", func() {
				for move := 0; move < 2; move++ {
					stats := eng.Search(st, dist)
					if stats.Playouts != cfg.Playouts {
						t.Errorf("playouts = %d, want %d", stats.Playouts, cfg.Playouts)
					}
				}
			})
			ss := srv.Stats()
			if ss.DeadlineFlushes != 0 || ss.QuorumFlushes == 0 {
				t.Fatalf("stats %+v: want quorum flushes and no deadline flush", ss)
			}
			eng.Close()
			cl.Close()
			srv.Close()
		})
	}
}

// TestFlushCauseCounters: on a server nobody registers with, launches are
// attributed to threshold and deadline as before, explicit pushes to neither.
func TestFlushCauseCounters(t *testing.T) {
	srv := evaluate.NewServer(&gateBackend{}, evaluate.ServerConfig{Batch: 2, FlushDeadline: 20 * time.Millisecond})
	defer srv.Close()
	cl := srv.NewSyncClient()
	submit := func(n int) []*evaluate.Request {
		reqs := make([]*evaluate.Request, n)
		for i := range reqs {
			reqs[i] = &evaluate.Request{Input: make([]float32, 4), Policy: make([]float32, 2)}
			cl.Submit(reqs[i])
		}
		return reqs
	}
	wait := func(reqs []*evaluate.Request) {
		for _, req := range reqs {
			cl.Wait(req)
		}
	}
	wait(submit(2)) // threshold
	wait(submit(1)) // deadline
	pushed := submit(1)
	srv.Flush() // explicit push
	wait(pushed)
	want := evaluate.ServerStats{Batches: 3, Requests: 4, ThresholdFlushes: 1, DeadlineFlushes: 1}
	if st := srv.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	cl.Close()
}

// sizeBackend records the largest batch and runs each on inner, the first
// only once hold returns.
type sizeBackend struct {
	inner evaluate.Backend
	hold  func()
	once  sync.Once
	mu    sync.Mutex
	max   int
}

func (b *sizeBackend) RunBatch(batch []*evaluate.Request) {
	b.mu.Lock()
	b.max = max(b.max, len(batch))
	b.mu.Unlock()
	b.once.Do(b.hold)
	b.inner.RunBatch(batch)
}

// TestBatchedAndPooledLocalSearchesAgree: two local-tree searches at k = 3
// visit the same bits whether their evaluations launch in batches or one at
// a time. Over a Batch-8 server with a far deadline they launch by quorum
// alone, and once the first batch has waited for all six slots the largest
// batch holds both searches' 6. Over a Batch-1 pool with two launchers, what
// every CPU server is, each launch holds one request. Each search applies
// its evaluations in submission order, so how they were launched cannot move
// its visits.
func TestBatchedAndPooledLocalSearchesAgree(t *testing.T) {
	g := gomoku.NewSized(7)
	search := func(cfg evaluate.ServerConfig) (largest int, st evaluate.ServerStats, dists [][]float32) {
		var srv *evaluate.Server
		sizes := &sizeBackend{inner: &evaluate.EvaluatorBackend{Eval: &evaluate.Random{}, Workers: 2}, hold: func() {
			for srv.Stats().Requests+int64(srv.Pending()) < 6 {
				time.Sleep(50 * time.Microsecond)
			}
		}}
		srv = evaluate.NewServer(sizes, cfg)
		dists = make([][]float32, 2)
		var wg sync.WaitGroup
		for i := range dists {
			cfg := mcts.DefaultConfig()
			cfg.Playouts = 90
			cfg.Seed = uint64(11 + i)
			cl := srv.NewSyncClient()
			eng := mcts.NewLocal(cfg, cl, 3)
			dists[i] = make([]float32, g.NumActions())
			wg.Add(1)
			go func() {
				defer wg.Done()
				for move := 0; move < 2; move++ {
					eng.Search(g.NewInitial(), dists[i])
				}
				eng.Close()
				cl.Close()
			}()
		}
		wg.Wait()
		srv.Close()
		return sizes.max, srv.Stats(), dists
	}
	batched, batchedStats, batchedDists := search(evaluate.ServerConfig{Batch: 8, FlushDeadline: farDeadline})
	pooled, pooledStats, pooledDists := search(evaluate.ServerConfig{Batch: 1, LaunchWorkers: 2})
	t.Logf("batched: largest batch %d, %+v; pooled: largest batch %d, %+v", batched, batchedStats, pooled, pooledStats)
	if batchedStats.DeadlineFlushes != 0 {
		t.Fatalf("batched: %d deadline flushes, want none", batchedStats.DeadlineFlushes)
	}
	if batched != 6 {
		t.Fatalf("batched: largest batch held %d, want both searches' 6", batched)
	}
	if pooled != 1 || pooledStats.Batches != pooledStats.Requests {
		t.Fatalf("pooled: largest batch %d, %+v: want one request per launch", pooled, pooledStats)
	}
	for i := range batchedDists {
		for a := range batchedDists[i] {
			if math.Float32bits(batchedDists[i][a]) != math.Float32bits(pooledDists[i][a]) {
				t.Fatalf("search %d, action %d: visits %v batched, %v pooled", i, a, batchedDists[i][a], pooledDists[i][a])
			}
		}
	}
}
