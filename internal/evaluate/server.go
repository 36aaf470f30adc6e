package evaluate

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFlushDeadline is the flush deadline a multi-tenant deployment uses
// when none is configured: long enough for co-tenant requests to aggregate
// into a near-full batch, short enough that a lone tenant's tail latency
// stays far below one device round-trip at full fill.
const DefaultFlushDeadline = time.Millisecond

// Backend executes one formed batch synchronously: it must fill Value (and
// Policy, for evaluators that write it) of every request before returning.
// The Server owns batch formation and completion signalling; the backend only
// supplies the compute.
type Backend interface {
	RunBatch(batch []*Request)
}

// EvaluatorBackend runs a batch through a synchronous evaluator on at most
// Workers cores at once across ALL in-flight batches — the service
// equivalent of the local-tree scheme's N inference threads (Figure 2a).
//
// A formed batch is cut into at most Workers contiguous sub-batches, run on
// the caller and forChunks goroutines (a one-request batch is one
// sub-batch on the caller). Each sub-batch takes one concurrency token and is
// ONE EvaluateBatch call when Eval is a BatchEvaluator — *NN, or a
// *CacheView over one: one batched forward pass per core, the cache view
// forwarding only its misses — and one Evaluate per request, in order,
// otherwise. Which of the two runs is decided by what Eval is, never by
// configuration, and the outputs are the same bits either way.
type EvaluatorBackend struct {
	Eval Evaluator
	// Workers bounds the sub-batches in flight across all batches
	// (0 = GOMAXPROCS).
	Workers int

	once    sync.Once
	sem     chan struct{}
	batched BatchEvaluator // Eval's batched form, nil when it has none
}

// RunBatch implements Backend.
func (b *EvaluatorBackend) RunBatch(batch []*Request) {
	b.once.Do(func() {
		w := b.Workers
		if w < 1 {
			w = runtime.GOMAXPROCS(0)
		}
		b.sem = make(chan struct{}, w)
		b.batched = batchedForm(b.Eval)
	})
	if len(batch) == 1 {
		b.run(batch)
		return
	}
	forChunks(len(batch), cap(b.sem), func(lo, hi int) { b.run(batch[lo:hi]) })
}

// forChunks splits [0, n) into at most w contiguous chunks of equal size (the
// last may be shorter; w <= 0 means GOMAXPROCS), runs fn on each — the first
// on the caller's goroutine, every other on its own — and returns once all
// have. It is how RunBatch shares a formed batch between cores.
func forChunks(n, w int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = min(w, n)
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			fn(lo, min(lo+chunk, n))
		}(lo)
	}
	fn(0, chunk)
	wg.Wait()
}

// run evaluates one sub-batch under one concurrency token.
func (b *EvaluatorBackend) run(chunk []*Request) {
	b.sem <- struct{}{}
	if b.batched == nil {
		for _, req := range chunk {
			req.Value = b.Eval.Evaluate(req.Input, req.Policy)
		}
		<-b.sem
		return
	}
	io := getBatchIO(len(chunk))
	for i, req := range chunk {
		io.inputs[i], io.policies[i] = req.Input, req.Policy
	}
	b.batched.EvaluateBatch(io.inputs, io.policies, io.values)
	<-b.sem
	for i, req := range chunk {
		req.Value = io.values[i]
	}
	putBatchIO(io)
}

// batchedForm returns e as a BatchEvaluator when batching through it ends in
// a batched forward pass: a cache view qualifies only if the evaluator its
// misses go to does.
func batchedForm(e Evaluator) BatchEvaluator {
	if v, ok := e.(*CacheView); ok {
		if _, ok := v.inner.(BatchEvaluator); !ok {
			return nil
		}
	}
	be, _ := e.(BatchEvaluator)
	return be
}

// ServerConfig tunes a Server.
type ServerConfig struct {
	// Batch is the flush threshold (requests per device launch). With G
	// tenants it is typically set to the aggregate fill G*B rather than one
	// tenant's sub-batch size. Values < 1 are treated as 1.
	Batch int
	// FlushDeadline bounds how long any submitted request may sit in the
	// buffer before its batch launches (0 = threshold-only flushing).
	// Multi-tenant deployments must set it: a lone straggler tenant would
	// otherwise deadlock waiting for co-tenants that already finished.
	FlushDeadline time.Duration
	// MaxOutstanding, when positive, bounds buffered+executing requests
	// across all tenants; Submit blocks once the bound is reached
	// (backpressure instead of unbounded queueing).
	MaxOutstanding int
	// LaunchWorkers, when positive, executes batches on that many
	// PERSISTENT launcher goroutines instead of spawning one goroutine per
	// batch. Spawn-per-batch suits accelerator streams (few, large
	// batches); persistent launchers suit Batch=1 worker-pool deployments,
	// where a per-request spawn would sit on the per-playout hot path.
	LaunchWorkers int
}

// ServerStats is a snapshot of the service's aggregate batch economics. Its
// counters are kept under the lock that decides each launch and are read
// together, so they form one snapshot: ThresholdFlushes + QuorumFlushes +
// DeadlineFlushes <= Batches on every read.
type ServerStats struct {
	// Batches is the number of device launches so far.
	Batches int64
	// Requests is the number of requests handed to a launch.
	Requests int64
	// ThresholdFlushes, QuorumFlushes and DeadlineFlushes split Batches by
	// the launch condition that took them (see Server). The rest of Batches
	// were pushed explicitly (Flush, Client.Wait on a deadline-less server,
	// Close). A deadline share that
	// is not small on a server whose tenants all search through
	// BeginSearch/EndSearch means tenants are slow in tree code, not that
	// the deadline is too long.
	ThresholdFlushes, QuorumFlushes, DeadlineFlushes int64
}

// AvgFill is the mean requests per launch — the quantity the multi-tenant
// aggregation exists to maximise (Section 3.3's under-filled batch problem).
func (s ServerStats) AvgFill() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// Server is a multi-tenant inference service: it multiplexes Requests from
// any number of Clients onto one batched backend, forming batches by
// threshold, quorum or flush deadline (whichever is hit first), launching
// each batch on its own goroutine (stream-style overlap), and signalling
// each request's completion on the request itself. It replaces the
// one-engine-owns-one-queue topology of the seed: G concurrent searches
// sharing a Server present the device with one large batch stream instead of
// G under-filled ones.
//
// The three launch conditions, checked under one lock by whoever completes
// one (Submit, EndSearch or the deadline timer), which then launches the
// whole buffer outside the lock:
//
//   - threshold: ServerConfig.Batch requests are buffered. It wins a tie
//     with the quorum;
//   - quorum: tenants that search register their rollout contexts as slots
//     (Client.BeginSearch/EndSearch — the mcts engines do it around every
//     Search), and the buffer holds one request per registered slot, so no
//     open search can add to it;
//   - deadline: the first request of a buffer generation arms a timer of
//     FlushDeadline, and taking the buffer stops it, so no request waits
//     longer than that between Submit and its launch. With registered
//     tenants it is only the backstop for a tenant that is busy in tree
//     code while the others wait, not the light-load latency floor.
//
// The quorum counts every registered slot, including slots whose request is
// executing in an earlier batch: a request buffered meanwhile waits for that
// batch's tenants to return and merge with it (at most one forward pass),
// which keeps G lock-step sessions in one batch of G. Treating executing
// tenants as absent, or launching whenever the device is idle, splits them
// into out-of-phase groups that never re-merge. A server no tenant registers
// with has no quorum and batches by threshold and deadline alone. An
// explicit push (Flush, Close, a deadline-less Client.Wait) launches the
// buffer under no condition.
//
// The server holds one Backend at a time, and a batch reads it once, when it
// runs. SwapBackend replaces it between training rounds (see its contract).
//
// Lifecycle: all Submits must happen-before Close. Close flushes the
// remaining partial batch, waits for in-flight launches to drain, and then
// refuses further work. Clients are closed individually (Client.Close) and
// may outlive each other; closing the Server while clients still have
// requests in flight is a bug in the caller.
type Server struct {
	cfg     ServerConfig
	sem     chan struct{} // backpressure tokens (nil = unbounded)
	backend atomic.Pointer[Backend]

	// mu guards the batcher: the buffer, the registered quorum slots, the
	// buffer generation with its deadline timer, and the counters.
	mu    sync.Mutex
	buf   []*Request
	slots int         // registered search slots: the quorum (0 = condition off)
	gen   uint64      // buffer generation; invalidates a timer that lost the race with Stop
	timer *time.Timer // this generation's deadline timer, nil when none is armed
	stats ServerStats

	inflight sync.WaitGroup
	closed   atomic.Bool

	// work feeds the persistent launcher goroutines (nil in
	// spawn-per-batch mode); launchers tracks them for Close.
	work      chan []*Request
	launchers sync.WaitGroup
}

// NewServer creates a service over backend. See ServerConfig for knobs.
func NewServer(backend Backend, cfg ServerConfig) *Server {
	if backend == nil {
		panic("evaluate: nil server backend")
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	if cfg.FlushDeadline < 0 {
		panic("evaluate: negative flush deadline")
	}
	s := &Server{cfg: cfg, buf: make([]*Request, 0, cfg.Batch)}
	s.backend.Store(&backend)
	if cfg.MaxOutstanding > 0 {
		s.sem = make(chan struct{}, cfg.MaxOutstanding)
	}
	if cfg.LaunchWorkers > 0 {
		// Queue capacity covers the backpressure bound so enqueueing a
		// launch never blocks a submitter that already holds a sem token.
		capW := cfg.LaunchWorkers * 4
		if cfg.MaxOutstanding > capW {
			capW = cfg.MaxOutstanding
		}
		s.work = make(chan []*Request, capW)
		for w := 0; w < cfg.LaunchWorkers; w++ {
			s.launchers.Add(1)
			go func() {
				defer s.launchers.Done()
				for batch := range s.work {
					s.runAndDeliver(batch)
				}
			}()
		}
	}
	return s
}

// SwapBackend replaces the server's backend with b. Submissions after it
// returns run on b; a request already buffered or executing may run on either
// backend. A caller that must not mix networks inside one game swaps where no
// game is in flight, as dist.Worker does at its round barrier. No queue is
// drained and no submitter blocks.
func (s *Server) SwapBackend(b Backend) {
	if b == nil {
		panic("evaluate: SwapBackend with nil backend")
	}
	s.backend.Store(&b)
}

// Batch returns the configured flush threshold.
func (s *Server) Batch() int { return s.cfg.Batch }

// Stats snapshots the batch counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Pending returns the number of buffered (not yet launched) requests.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Outstanding returns the number of backpressure tokens currently held —
// requests buffered or executing, counted against MaxOutstanding. Zero when
// the server is unbounded. Admission-control layers (internal/serve) read it
// to reject new work with a retriable error before a Submit would block.
func (s *Server) Outstanding() int {
	if s.sem == nil {
		return 0
	}
	return len(s.sem)
}

// MaxOutstanding returns the configured backpressure bound (0 = unbounded).
func (s *Server) MaxOutstanding() int { return s.cfg.MaxOutstanding }

// Saturated reports whether the backpressure bound is currently exhausted:
// the next Submit would block until an in-flight evaluation completes. A
// server without a bound is never saturated.
func (s *Server) Saturated() bool {
	return s.sem != nil && len(s.sem) == cap(s.sem)
}

// Flush launches any buffered partial batch immediately.
func (s *Server) Flush() { s.push(nil) }

// Close gracefully drains the service: the remaining partial batch is
// flushed and all in-flight launches complete. Submit after Close panics.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.push(nil)
	s.inflight.Wait()
	if s.work != nil {
		close(s.work)
		s.launchers.Wait()
	}
}

// submit buffers one request, blocking on the backpressure bound.
func (s *Server) submit(req *Request) {
	if s.closed.Load() {
		panic("evaluate: Submit on closed Server")
	}
	if s.sem != nil {
		s.sem <- struct{}{}
	}
	s.mu.Lock()
	s.buf = append(s.buf, req)
	batch := s.takeIfReadyLocked()
	if batch == nil && len(s.buf) == 1 && s.cfg.FlushDeadline > 0 {
		gen := s.gen
		s.timer = time.AfterFunc(s.cfg.FlushDeadline, func() { s.flushDeadline(gen) })
	}
	s.mu.Unlock()
	s.launch(batch)
}

// takeLocked takes the buffer as one batch, counts it, and starts a new
// generation, stopping the deadline timer armed for the old one. Caller
// holds s.mu.
func (s *Server) takeLocked() []*Request {
	batch := s.buf
	s.buf = make([]*Request, 0, s.cfg.Batch)
	s.gen++
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.stats.Batches++
	s.stats.Requests += int64(len(batch))
	return batch
}

// takeIfReadyLocked takes the buffer if it meets the threshold or the
// quorum, counting which. Caller holds s.mu.
func (s *Server) takeIfReadyLocked() []*Request {
	switch n := len(s.buf); {
	case n >= s.cfg.Batch:
		s.stats.ThresholdFlushes++
	case s.slots > 0 && n >= s.slots:
		s.stats.QuorumFlushes++
	default:
		return nil
	}
	return s.takeLocked()
}

// flushDeadline is the timer callback: it launches the buffer only if the
// generation it was armed for is still accumulating (Stop loses the race
// against a callback that has already started).
func (s *Server) flushDeadline(gen uint64) {
	var batch []*Request
	s.mu.Lock()
	if s.gen == gen && len(s.buf) > 0 {
		s.stats.DeadlineFlushes++
		batch = s.takeLocked()
	}
	s.mu.Unlock()
	s.launch(batch)
}

// push launches the buffer under no launch condition: all of it, or, when
// holding is non-nil, only while holding is in it.
func (s *Server) push(holding *Request) {
	var batch []*Request
	s.mu.Lock()
	if len(s.buf) > 0 && (holding == nil || slices.Contains(s.buf, holding)) {
		batch = s.takeLocked()
	}
	s.mu.Unlock()
	s.launch(batch)
}

// launch executes one formed batch, if there is one — on its own goroutine
// (the "CUDA stream" of Section 3.3), or via a persistent launcher when
// LaunchWorkers is set — and signals each request's completion.
func (s *Server) launch(batch []*Request) {
	if batch == nil {
		return
	}
	s.inflight.Add(1)
	if s.work != nil {
		s.work <- batch
		return
	}
	go s.runAndDeliver(batch)
}

// runAndDeliver is the launch body: backend compute, per-request delivery,
// backpressure release.
func (s *Server) runAndDeliver(batch []*Request) {
	defer s.inflight.Done()
	(*s.backend.Load()).RunBatch(batch)
	for _, req := range batch {
		cl := req.client
		req.client = nil
		cl.deliver(req)
		if s.sem != nil {
			<-s.sem
		}
	}
}

// NewSyncClient registers a tenant. Every tenant is used either way: as an
// Evaluator (Evaluate blocks on one pooled request — the shared-tree and
// serial engines) or as an Async (Submit, then Wait on each request — the
// local-tree master).
func (s *Server) NewSyncClient() *Client {
	return &Client{srv: s}
}

// Client is one tenant's handle on a Server, shared or private. It
// implements Async, so an mcts.Local master uses a shared service exactly
// like a private evaluator queue: it blocks in Wait, and whether a partial
// batch launches by the server's flush deadline or by Wait's own push is
// the client's business, not the engine's. Completion is signalled on each
// request, never on a stream the tenant shares, so no tenant can hold up
// another's delivery.
type Client struct {
	srv *Server
	// ownsServer marks the one tenant of a NewPool's private server: Close
	// closes the server too.
	ownsServer bool

	mu          sync.Mutex
	outstanding int
	drained     *sync.Cond
	closed      bool
}

// Server exposes the service this client submits to.
func (c *Client) Server() *Server { return c.srv }

// Submit implements Async.
func (c *Client) Submit(req *Request) {
	if req.done == nil {
		req.done = make(chan struct{}, 1)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		panic("evaluate: Submit on closed Client")
	}
	c.outstanding++
	c.mu.Unlock()
	req.client = c
	c.srv.submit(req)
}

// BeginSearch opens a search with n rollout contexts on this tenant: up to
// n more requests can be outstanding at once, so the server's quorum rises
// by n. The mcts engines call it, through their optional SlotRegistrar
// interface, around every Search; a tenant that never does is simply not
// part of the quorum.
func (c *Client) BeginSearch(n int) {
	if n < 0 {
		panic("evaluate: negative slot count")
	}
	c.srv.mu.Lock()
	c.srv.slots += n
	c.srv.mu.Unlock()
}

// EndSearch gives back n of the slots BeginSearch opened, in one call or
// several, as soon as their contexts can no longer submit. If every
// remaining slot already has its request buffered, the buffer launches now
// — a hand-off to the launch goroutine (or a launcher's queue), so the
// caller, typically about to answer its user, does not run the batch.
// Giving back more slots than are open panics.
func (c *Client) EndSearch(n int) {
	s := c.srv
	s.mu.Lock()
	if n < 0 || n > s.slots {
		s.mu.Unlock()
		panic("evaluate: EndSearch without a matching BeginSearch")
	}
	s.slots -= n
	batch := s.takeIfReadyLocked()
	s.mu.Unlock()
	s.launch(batch)
}

// deliver signals one of this tenant's requests complete.
func (c *Client) deliver(req *Request) {
	req.done <- struct{}{}
	c.mu.Lock()
	c.outstanding--
	if c.outstanding == 0 && c.drained != nil {
		c.drained.Broadcast()
	}
	c.mu.Unlock()
}

// Wait implements Async: it blocks until req, submitted through this client,
// has been delivered. With a deadline-flushing server a buffered request is
// never stuck — the timer launches it — so Wait only waits. Without a
// deadline it keeps the classic accelerator-queue semantics: a request still
// in the buffer moves only when something pushes it, so Wait first pushes
// the buffer if req is in it (a service-wide action: co-tenants' buffered
// requests launch with it). A request already handed to a launch is left to
// it: Wait reads nothing but where its own request is, so no timing of other
// launches can strand it.
func (c *Client) Wait(req *Request) {
	if c.srv.cfg.FlushDeadline == 0 {
		c.srv.push(req)
	}
	<-req.done
}

// Evaluate adapts the client to the Evaluator interface: it submits one
// pooled request and blocks until the service delivers it. It never pushes
// a partial batch: the threshold, the quorum or the deadline launches it.
func (c *Client) Evaluate(input []float32, policy []float32) float64 {
	req := AcquireRequest()
	req.Input, req.Policy = input, policy
	c.Submit(req)
	<-req.done
	v := req.Value
	ReleaseRequest(req)
	return v
}

// Close implements Async: if this tenant still has requests outstanding it
// flushes the service so none of them is stranded in the shared buffer and
// waits until all have been delivered. An idle tenant's Close launches
// nothing — co-tenants' buffered requests keep waiting for their own batch.
// A shared Server stays open for other tenants; a private one (NewPool) is
// closed with its only client.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if c.drained == nil {
		c.drained = sync.NewCond(&c.mu)
	}
	pending := c.outstanding > 0
	c.mu.Unlock()

	if pending {
		c.srv.Flush()
	}

	c.mu.Lock()
	for c.outstanding > 0 {
		c.drained.Wait()
	}
	c.mu.Unlock()
	if c.ownsServer {
		c.srv.Close()
	}
}

// requestPool recycles Requests together with their done channels, so the
// per-playout Request allocation (visible in heap profiles of long searches)
// and the per-wait channel allocation both disappear. The done channel is a
// 1-buffered signal channel — signalled by send, not close — so it survives
// reuse across pool cycles.
var requestPool = sync.Pool{
	New: func() interface{} { return &Request{done: make(chan struct{}, 1)} },
}

// AcquireRequest returns a pooled Request with a reusable completion signal.
// Callers set Input/Policy before Submit and must ReleaseRequest once the
// evaluation result has been consumed.
func AcquireRequest() *Request {
	return requestPool.Get().(*Request)
}

// ReleaseRequest recycles req. The caller must not touch req afterwards.
func ReleaseRequest(req *Request) {
	req.Input = nil
	req.Policy = nil
	req.Value = 0
	req.client = nil
	select { // drop a stray completion signal so reuse starts clean
	case <-req.done:
	default:
	}
	requestPool.Put(req)
}
