package evaluate

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordingBackend captures launch times and batch shapes.
type recordingBackend struct {
	mu       sync.Mutex
	launches []time.Time
	sizes    []int
	delay    time.Duration
}

func (b *recordingBackend) RunBatch(batch []*Request) {
	b.mu.Lock()
	b.launches = append(b.launches, time.Now())
	b.sizes = append(b.sizes, len(batch))
	b.mu.Unlock()
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	for i, req := range batch {
		req.Value = float64(i)
	}
}

func (b *recordingBackend) snapshot() ([]time.Time, []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Time(nil), b.launches...), append([]int(nil), b.sizes...)
}

// delivered reports whether req's completion arrives within d. Unlike Wait it
// pushes nothing, so the test calling it sees only what the server launched.
func delivered(req *Request, d time.Duration) bool {
	select {
	case <-req.done:
		return true
	case <-time.After(d):
		return false
	}
}

// newReq is a fresh request of inputs inputs and actions actions.
func newReq(seed uint64, inputs, actions int) *Request {
	return &Request{Input: testInput(seed, inputs), Policy: make([]float32, actions)}
}

// TestClientWait pins both halves of the handshake Wait took over from the
// engines. A client that holds no slots, about to block on its own buffered
// request, must not deadlock: Wait pushes the partial batch holding it, and
// only that one — a request already launched is left to its batch. On a
// registered client Wait only waits — the quorum owns the launch, and
// pushing early would shrink the co-tenants' batches.
func TestClientWait(t *testing.T) {
	wait := func(cl *Client, req *Request) <-chan struct{} {
		got := make(chan struct{})
		go func() { cl.Wait(req); close(got) }()
		return got
	}

	backend := &recordingBackend{}
	srv := NewServer(backend, ServerConfig{Batch: 64})
	cl := srv.NewSyncClient()
	first, second := newReq(0, 8, 4), newReq(1, 8, 4)
	cl.Submit(first)
	cl.Submit(second)
	select {
	case <-wait(cl, first):
	case <-time.After(2 * time.Second):
		t.Fatal("Wait of a slotless client blocked on a partial batch")
	}
	third := newReq(2, 8, 4)
	cl.Submit(third)
	<-wait(cl, second) // already delivered with first: pushes nothing
	if srv.Pending() != 1 {
		t.Fatalf("waiting on a delivered request pushed the buffer: %d pending", srv.Pending())
	}
	<-wait(cl, third)
	if _, sizes := backend.snapshot(); len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("expected Wait to push a 2-request and a 1-request batch, got %v", sizes)
	}
	cl.Close()
	srv.Close()

	backend = &recordingBackend{}
	srv = NewServer(backend, ServerConfig{Batch: 64})
	cl = srv.NewSyncClient()
	cl.BeginSearch(2)
	first, second = newReq(0, 8, 4), newReq(1, 8, 4)
	cl.Submit(first)
	got := wait(cl, first)
	select {
	case <-got:
		t.Fatal("Wait of a registered client returned before its slots' quorum")
	case <-time.After(20 * time.Millisecond):
	}
	if srv.Pending() != 1 || srv.Stats().Batches != 0 {
		t.Fatalf("Wait of a registered client pushed: %d pending, stats %+v", srv.Pending(), srv.Stats())
	}
	cl.Submit(second) // the second slot's request: the quorum launches both
	<-got
	want := ServerStats{Batches: 1, Requests: 2, QuorumFlushes: 1}
	if st := srv.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	cl.Wait(second)
	cl.EndSearch(2)
	cl.Close()
	srv.Close()
}

// TestServerRoutesPerClient: each request comes back with the evaluation of
// its own input, even when one batch mixes many tenants. Completion is
// signalled on the request, so it cannot reach another tenant; what is left
// to check is that the batch hands each request its own answer.
func TestServerRoutesPerClient(t *testing.T) {
	srv := NewServer(&EvaluatorBackend{Eval: &Random{}}, ServerConfig{Batch: 8})
	const tenants, perTenant = 4, 25
	clients := make([]*Client, tenants)
	for i := range clients {
		clients[i] = srv.NewSyncClient()
	}
	var wg sync.WaitGroup
	for ci, cl := range clients {
		wg.Add(1)
		go func(ci int, cl *Client) {
			defer wg.Done()
			submitted := make(chan *Request, perTenant)
			go func() {
				for k := 0; k < perTenant; k++ {
					req := newReq(uint64(ci*1000+k), 36, 9)
					cl.Submit(req)
					submitted <- req
				}
			}()
			want := make([]float32, 9)
			for k := 0; k < perTenant; k++ {
				req := <-submitted
				cl.Wait(req) // holds no slots: pushes a tail the threshold leaves
				v := (&Random{}).Evaluate(req.Input, want)
				if req.Value != v || !slices.Equal(req.Policy, want) {
					t.Errorf("tenant %d request %d carries another input's evaluation", ci, k)
					return
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	for _, cl := range clients {
		cl.Close()
	}
	srv.Close()
	if st := srv.Stats(); st.Requests != tenants*perTenant {
		t.Fatalf("served %d requests, want %d", st.Requests, tenants*perTenant)
	}
}

// TestServerConcurrentSubmitFlushClose is the race test for the service's
// lifecycle: many tenants submitting, a flusher hammering Flush, and a
// graceful drain at the end. Run with -race in CI.
func TestServerConcurrentSubmitFlushClose(t *testing.T) {
	backend := &recordingBackend{}
	srv := NewServer(backend, ServerConfig{Batch: 16, MaxOutstanding: 256})
	const tenants, perTenant = 8, 200
	clients := make([]*Client, tenants)
	for i := range clients {
		clients[i] = srv.NewSyncClient()
	}

	stopFlusher := make(chan struct{})
	var flusherDone sync.WaitGroup
	flusherDone.Add(1)
	go func() {
		defer flusherDone.Done()
		for {
			select {
			case <-stopFlusher:
				return
			default:
				srv.Flush()
			}
		}
	}()

	var wg sync.WaitGroup
	var delivered atomic.Int64
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			submitted := make(chan *Request, perTenant)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for req := range submitted {
					cl.Wait(req)
					delivered.Add(1)
				}
			}()
			for k := 0; k < perTenant; k++ {
				req := newReq(uint64(k), 4, 2)
				cl.Submit(req)
				submitted <- req
			}
			close(submitted)
			<-done
			cl.Close()
		}(cl)
	}
	wg.Wait()
	close(stopFlusher)
	flusherDone.Wait()
	srv.Close()

	if delivered.Load() != tenants*perTenant {
		t.Fatalf("delivered %d, want %d", delivered.Load(), tenants*perTenant)
	}
	if st := srv.Stats(); st.Requests != tenants*perTenant {
		t.Fatalf("server served %d, want %d", st.Requests, tenants*perTenant)
	}
}

// TestServerBackpressure: Submit blocks once MaxOutstanding requests are in
// the service, and unblocks as completions drain.
func TestServerBackpressure(t *testing.T) {
	backend := &recordingBackend{delay: 20 * time.Millisecond}
	srv := NewServer(backend, ServerConfig{Batch: 2, MaxOutstanding: 4})
	cl := srv.NewSyncClient()
	reqs := make([]*Request, 5)
	for i := range reqs {
		reqs[i] = newReq(uint64(i), 4, 2)
	}
	for _, req := range reqs[:4] {
		cl.Submit(req)
	}
	// The 5th submit must block until the first batch completes.
	blocked := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		cl.Submit(reqs[4])
		blocked <- time.Since(start)
	}()
	select {
	case waited := <-blocked:
		if waited < 10*time.Millisecond {
			t.Fatalf("5th submit went through after %v; backpressure absent", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("5th submit never unblocked")
	}
	srv.Flush() // release the odd request
	for _, req := range reqs {
		cl.Wait(req)
	}
	cl.Close()
	srv.Close()
}

// TestServerCloseDrainsPartialBatch: Close flushes buffered work and waits
// for in-flight launches, so no request is ever lost on shutdown.
func TestServerCloseDrainsPartialBatch(t *testing.T) {
	backend := &recordingBackend{}
	srv := NewServer(backend, ServerConfig{Batch: 64})
	cl := srv.NewSyncClient()
	reqs := make([]*Request, 5)
	for i := range reqs {
		reqs[i] = newReq(uint64(i), 4, 2)
		cl.Submit(reqs[i])
	}
	go srv.Close() // flushes the 5 buffered requests
	for _, req := range reqs {
		if !delivered(req, 5*time.Second) {
			t.Fatal("Close did not drain the partial batch")
		}
	}
	cl.Close()
}

// TestClientCloseIdleLaunchesNothing: closing a tenant with nothing
// outstanding must not push co-tenants' partial batch to the device — that
// launch would sit outside both flush-cause counters and cost the
// co-tenants their fill.
func TestClientCloseIdleLaunchesNothing(t *testing.T) {
	srv := NewServer(&recordingBackend{}, ServerConfig{Batch: 4})
	busy := srv.NewSyncClient()
	busy.Submit(&Request{Input: []float32{1}, Policy: make([]float32, 2)})
	before := srv.Stats()

	idle := srv.NewSyncClient()
	idle.Close()
	if srv.Pending() != 1 || srv.Stats() != before {
		t.Fatalf("idle Close launched a co-tenant's batch: pending %d, stats %+v -> %+v", srv.Pending(), before, srv.Stats())
	}

	busy.Close() // this one does have a request outstanding: it flushes
	if srv.Pending() != 0 || srv.Stats().Requests != 1 {
		t.Fatalf("busy Close left its request stranded: pending %d, stats %+v", srv.Pending(), srv.Stats())
	}
	srv.Close()
}

// TestRequestPoolReuse: pooled requests keep a working done channel across
// acquire/release cycles, and a sync client evaluates through them.
func TestRequestPoolReuse(t *testing.T) {
	req := AcquireRequest()
	if req.done == nil || cap(req.done) != 1 {
		t.Fatalf("pooled request needs a 1-buffered done channel, got %v", req.done)
	}
	req.Input = []float32{7}
	req.done <- struct{}{} // stray signal must be drained on release
	ReleaseRequest(req)

	again := AcquireRequest()
	if again.Input != nil {
		t.Fatal("released request not cleared")
	}
	select {
	case <-again.done:
		t.Fatal("stray completion signal survived the pool")
	default:
	}
	ReleaseRequest(again)

	// End-to-end through a sync client: many evaluations, one goroutine —
	// every cycle reuses the pooled request and its channel.
	srv := NewServer(&EvaluatorBackend{Eval: &Random{}}, ServerConfig{Batch: 1})
	cl := srv.NewSyncClient()
	policy := make([]float32, 9)
	for i := 0; i < 50; i++ {
		cl.Evaluate(testInput(uint64(i), 36), policy)
	}
	cl.Close()
	srv.Close()
}

// TestEvaluatorBackendBoundsConcurrency: no more than Workers evaluations
// run at once, however many batches are in flight.
func TestEvaluatorBackendBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	eval := funcEvaluator(func(input []float32, policy []float32) float64 {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0
	})
	srv := NewServer(&EvaluatorBackend{Eval: eval, Workers: 3}, ServerConfig{Batch: 1, MaxOutstanding: 32})
	cl := srv.NewSyncClient()
	reqs := make([]*Request, 40)
	for i := range reqs {
		reqs[i] = &Request{Input: make([]float32, 4), Policy: make([]float32, 2)}
		cl.Submit(reqs[i])
	}
	for _, req := range reqs {
		cl.Wait(req)
	}
	cl.Close()
	srv.Close()
	if peak.Load() > 3 {
		t.Fatalf("peak concurrency %d exceeds the 3-worker bound", peak.Load())
	}
}

// TestServerPersistentLaunchers: LaunchWorkers mode delivers everything
// and drains cleanly on Close — the no-spawn hot path Pool runs on.
func TestServerPersistentLaunchers(t *testing.T) {
	srv := NewServer(&EvaluatorBackend{Eval: &Random{}, Workers: 2}, ServerConfig{
		Batch:          1,
		MaxOutstanding: 8,
		LaunchWorkers:  2,
	})
	cl := srv.NewSyncClient()
	const n = 200
	submitted := make(chan *Request, n)
	go func() {
		for i := 0; i < n; i++ {
			req := newReq(uint64(i), 20, 10)
			cl.Submit(req)
			submitted <- req
		}
	}()
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = <-submitted
		cl.Wait(reqs[i])
	}
	cl.Close()
	srv.Close()
	for i, req := range reqs {
		if len(req.done) > 0 {
			t.Fatalf("request %d delivered twice", i)
		}
	}
	if st := srv.Stats(); st.Requests != n || st.Batches != n {
		t.Fatalf("stats %+v, want %d singleton batches", st, n)
	}
}

// funcEvaluator adapts a function to the Evaluator interface.
type funcEvaluator func(input []float32, policy []float32) float64

func (f funcEvaluator) Evaluate(input []float32, policy []float32) float64 {
	return f(input, policy)
}
