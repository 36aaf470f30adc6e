package evaluate

import (
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

// TestServerDeadlineGuarantee pins the service-level guarantee the
// multi-tenant engine depends on: no submitted request waits longer than
// the flush deadline before its batch launches, even when the threshold is
// never reached.
func TestServerDeadlineGuarantee(t *testing.T) {
	const deadline = 20 * time.Millisecond
	backend := &recordingBackend{}
	srv := NewServer(backend, ServerConfig{Batch: 64, FlushDeadline: deadline})
	cl := srv.NewClient(8)

	// Far fewer requests than the threshold: only the deadline can launch.
	submitted := time.Now()
	for i := 0; i < 3; i++ {
		cl.Submit(&Request{Input: testInput(uint64(i), 8), Policy: make([]float32, 4)})
	}
	for i := 0; i < 3; i++ {
		select {
		case <-cl.Completions():
		case <-time.After(10 * deadline):
			t.Fatal("deadline flush never launched the partial batch")
		}
	}
	launches, sizes := backend.snapshot()
	if len(launches) != 1 || sizes[0] != 3 {
		t.Fatalf("expected one 3-request launch, got %d launches %v", len(launches), sizes)
	}
	wait := launches[0].Sub(submitted)
	if wait < deadline/2 {
		t.Fatalf("batch launched after %v — before the deadline, with threshold unmet", wait)
	}
	// Allow 1x the deadline as scheduler slack (AfterFunc slop on a loaded
	// 1-core CI host), but keep the bound proportional so a mis-scaled
	// timer (e.g. a units bug) cannot slip through.
	if wait > 2*deadline {
		t.Fatalf("request waited %v, deadline is %v", wait, deadline)
	}

	// A request joining a part-aged buffer waits strictly less than the
	// deadline: the timer belongs to the buffer's first request.
	cl.Submit(&Request{Input: testInput(9, 8), Policy: make([]float32, 4)})
	time.Sleep(deadline / 2)
	mid := time.Now()
	cl.Submit(&Request{Input: testInput(10, 8), Policy: make([]float32, 4)})
	<-cl.Completions()
	<-cl.Completions()
	launches, _ = backend.snapshot()
	if got := launches[len(launches)-1].Sub(mid); got > deadline {
		t.Fatalf("late joiner waited %v > deadline %v", got, deadline)
	}

	cl.Close()
	srv.Close()
}

// TestClientNext pins both halves of the handshake Next took over from the
// engines. On a threshold-only queue a caller about to block on its own
// buffered requests must not deadlock: with nothing executing, Next pushes
// the partial batch. Under a flush deadline Next only waits — the timer owns
// the launch, and pushing early would shrink the co-tenants' batches.
func TestClientNext(t *testing.T) {
	newReq := func(i int) *Request {
		return &Request{Input: testInput(uint64(i), 8), Policy: make([]float32, 4)}
	}
	next := func(cl *Client) <-chan *Request {
		got := make(chan *Request, 1)
		go func() { got <- cl.Next() }()
		return got
	}

	backend := &recordingBackend{}
	srv := NewServer(backend, ServerConfig{Batch: 64})
	cl := srv.NewClient(8)
	cl.Submit(newReq(0))
	cl.Submit(newReq(1))
	select {
	case <-next(cl):
	case <-time.After(2 * time.Second):
		t.Fatal("Next blocked on a partial batch of a deadline-less queue")
	}
	<-next(cl)
	if _, sizes := backend.snapshot(); len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("expected Next to push one 2-request batch, got %v", sizes)
	}
	cl.Close()
	srv.Close()

	const deadline = 20 * time.Millisecond
	backend = &recordingBackend{}
	srv = NewServer(backend, ServerConfig{Batch: 64, FlushDeadline: deadline})
	cl = srv.NewClient(8)
	submitted := time.Now()
	cl.Submit(newReq(0))
	select {
	case <-next(cl):
	case <-time.After(10 * deadline):
		t.Fatal("deadline flush never launched the partial batch")
	}
	if launches, _ := backend.snapshot(); launches[0].Sub(submitted) < deadline/2 {
		t.Fatalf("batch launched %v after submit: Next flushed a deadline queue", launches[0].Sub(submitted))
	}
	cl.Close()
	srv.Close()
}

// TestServerThresholdPreemptsDeadline: a full batch launches immediately,
// not at the deadline.
func TestServerThresholdPreemptsDeadline(t *testing.T) {
	backend := &recordingBackend{}
	srv := NewServer(backend, ServerConfig{Batch: 4, FlushDeadline: time.Second})
	cl := srv.NewClient(8)
	start := time.Now()
	for i := 0; i < 4; i++ {
		cl.Submit(&Request{Input: testInput(uint64(i), 8), Policy: make([]float32, 4)})
	}
	for i := 0; i < 4; i++ {
		<-cl.Completions()
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("full batch waited for the deadline: %v", elapsed)
	}
	cl.Close()
	srv.Close()
}

// TestServerRoutesPerClient: completions reach the tenant that submitted
// them, even when one batch mixes many tenants.
func TestServerRoutesPerClient(t *testing.T) {
	srv := NewServer(&EvaluatorBackend{Eval: &Random{}}, ServerConfig{Batch: 8, FlushDeadline: 5 * time.Millisecond})
	const tenants, perTenant = 4, 25
	clients := make([]*Client, tenants)
	for i := range clients {
		clients[i] = srv.NewClient(perTenant)
	}
	var wg sync.WaitGroup
	for ci, cl := range clients {
		wg.Add(1)
		go func(ci int, cl *Client) {
			defer wg.Done()
			go func() {
				for k := 0; k < perTenant; k++ {
					cl.Submit(&Request{
						Input:  testInput(uint64(ci*1000+k), 36),
						Policy: make([]float32, 9),
						Ctx:    ci*1000 + k,
					})
				}
			}()
			seen := make(map[int]bool)
			for k := 0; k < perTenant; k++ {
				select {
				case req := <-cl.Completions():
					id := req.Ctx.(int)
					if id/1000 != ci {
						t.Errorf("tenant %d received request %d", ci, id)
						return
					}
					if seen[id] {
						t.Errorf("tenant %d: duplicate request %d", ci, id)
						return
					}
					seen[id] = true
				case <-time.After(10 * time.Second):
					t.Errorf("tenant %d timed out after %d completions", ci, k)
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
	srv := NewServer(backend, ServerConfig{Batch: 16, FlushDeadline: time.Millisecond, MaxOutstanding: 256})
	const tenants, perTenant = 8, 200
	clients := make([]*Client, tenants)
	for i := range clients {
		clients[i] = srv.NewClient(perTenant)
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
			done := make(chan struct{})
			go func() {
				defer close(done)
				for k := 0; k < perTenant; k++ {
					<-cl.Completions()
					delivered.Add(1)
				}
			}()
			for k := 0; k < perTenant; k++ {
				cl.Submit(&Request{Input: testInput(uint64(k), 4), Policy: make([]float32, 2)})
			}
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
	cl := srv.NewClient(16)
	for i := 0; i < 4; i++ {
		cl.Submit(&Request{Input: testInput(uint64(i), 4), Policy: make([]float32, 2)})
	}
	// The 5th submit must block until the first batch completes.
	blocked := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		cl.Submit(&Request{Input: testInput(99, 4), Policy: make([]float32, 2)})
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
	for i := 0; i < 5; i++ {
		<-cl.Completions()
	}
	cl.Close()
	srv.Close()
}

// TestServerCloseDrainsPartialBatch: Close flushes buffered work and waits
// for in-flight launches, so no request is ever lost on shutdown.
func TestServerCloseDrainsPartialBatch(t *testing.T) {
	backend := &recordingBackend{}
	srv := NewServer(backend, ServerConfig{Batch: 64})
	cl := srv.NewClient(8)
	for i := 0; i < 5; i++ {
		cl.Submit(&Request{Input: testInput(uint64(i), 4), Policy: make([]float32, 2)})
	}
	go srv.Close() // flushes the 5 buffered requests
	for i := 0; i < 5; i++ {
		select {
		case <-cl.Completions():
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not drain the partial batch")
		}
	}
	cl.Close()
}

// TestClientCloseIdleLaunchesNothing: closing a tenant with nothing
// outstanding must not push co-tenants' partial batch to the device — that
// launch would sit outside all three flush-cause counters and cost the
// co-tenants their fill.
func TestClientCloseIdleLaunchesNothing(t *testing.T) {
	srv := NewServer(&recordingBackend{}, ServerConfig{Batch: 4})
	busy := srv.NewClient(1)
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
	req.Ctx = 7
	req.done <- struct{}{} // stray signal must be drained on release
	ReleaseRequest(req)

	again := AcquireRequest()
	if again.Input != nil || again.Ctx != nil {
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
	cl := srv.NewClient(64)
	const n = 40
	for i := 0; i < n; i++ {
		cl.Submit(&Request{Input: make([]float32, 4), Policy: make([]float32, 2)})
	}
	for i := 0; i < n; i++ {
		<-cl.Completions()
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
	cl := srv.NewClient(8)
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			cl.Submit(&Request{Input: testInput(uint64(i), 20), Policy: make([]float32, 10)})
		}
	}()
	seen := make(map[*Request]bool)
	for i := 0; i < n; i++ {
		req := <-cl.Completions()
		if seen[req] {
			t.Fatalf("request %d delivered twice", i)
		}
		seen[req] = true
	}
	cl.Close()
	srv.Close()
	if st := srv.Stats(); st.Requests != n || st.Batches != n {
		t.Fatalf("stats %+v, want %d singleton batches", st, n)
	}
}

// funcEvaluator adapts a function to the Evaluator interface.
type funcEvaluator func(input []float32, policy []float32) float64

func (f funcEvaluator) Evaluate(input []float32, policy []float32) float64 {
	return f(input, policy)
}
