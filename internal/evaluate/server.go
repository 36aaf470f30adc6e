package evaluate

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFlushDeadline is a flush deadline for a multi-tenant Server that
// batches: long enough for co-tenant requests to aggregate into a near-full
// batch, short enough that a lone tenant's tail latency stays far below one
// device round-trip at full fill.
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
// A formed batch is cut into at most Workers contiguous chunks, run on the
// caller and forChunks goroutines (a one-request batch is one chunk on the
// caller). Each chunk takes one concurrency token and runs one Evaluate per
// request, in order. The split is what puts an accelerator Link's lone
// batches on every core; a CPU pool of Batch 1 never forms a batch to split.
type EvaluatorBackend struct {
	Eval Evaluator
	// Workers bounds the chunks in flight across all batches
	// (0 = GOMAXPROCS).
	Workers int

	once sync.Once
	sem  chan struct{}
}

// RunBatch implements Backend.
func (b *EvaluatorBackend) RunBatch(batch []*Request) {
	if w := b.width(); len(batch) > 1 {
		forChunks(len(batch), w, func(lo, hi int) { b.run(batch[lo:hi]) })
		return
	}
	b.run(batch)
}

// width is how many chunks b runs at once: Workers, or GOMAXPROCS when
// Workers is 0, read once.
func (b *EvaluatorBackend) width() int {
	b.once.Do(func() {
		w := b.Workers
		if w < 1 {
			w = runtime.GOMAXPROCS(0)
		}
		b.sem = make(chan struct{}, w)
	})
	return cap(b.sem)
}

// forChunks splits [0, n) into at most w >= 1 contiguous chunks of equal
// size (the last may be shorter), runs fn on each — the first on the
// caller's goroutine, every other on its own — and returns once all have.
// It is how RunBatch shares a formed batch between cores.
func forChunks(n, w int, fn func(lo, hi int)) {
	if n <= 0 {
		return
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

// run evaluates one chunk under one concurrency token.
func (b *EvaluatorBackend) run(chunk []*Request) {
	b.sem <- struct{}{}
	for _, req := range chunk {
		req.Value = b.Eval.Evaluate(req.Input, req.Policy)
	}
	<-b.sem
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
	// batches); persistent launchers suit Batch=1 worker-pool deployments
	// (NewPool, the CPU fleets, internal/serve), where a per-request spawn
	// would sit on the per-playout hot path.
	LaunchWorkers int
}

// ServerStats is a snapshot of the service's aggregate batch economics: the
// launch rule's counters, so ThresholdFlushes + QuorumFlushes +
// DeadlineFlushes <= Batches on every read.
type ServerStats struct {
	// Batches is the number of device launches so far.
	Batches int64
	// Requests is the number of requests handed to a launch.
	Requests int64
	// ThresholdFlushes, QuorumFlushes and DeadlineFlushes split Batches by
	// the launch condition that took them (see Server). The rest of Batches
	// were pushed explicitly (Flush, Client.Wait on a deadline-less server,
	// Close). A deadline share that is not small on a server whose tenants
	// all search through BeginSearch/EndSearch means tenants are slow in tree
	// code, not that the deadline is too long.
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
// any number of Clients onto one batched backend, launching each batch on its
// own goroutine (stream-style overlap) and signalling each request's
// completion on the request itself. G concurrent searches sharing a Server
// present the device with one large batch stream instead of G under-filled
// ones.
//
// The whole buffer launches on the first of three conditions:
//
//   - threshold: ServerConfig.Batch requests are buffered;
//   - quorum: tenants that search register their rollout contexts as slots
//     (Client.BeginSearch/EndSearch — the mcts engines do it around every
//     Search), and every registered slot has its request buffered;
//   - deadline: no request waits longer than FlushDeadline between Submit
//     and its launch. With registered tenants it is only the backstop for a
//     tenant that is busy in tree code while the others wait, not the
//     light-load latency floor.
//
// The quorum counts every registered slot, including slots whose request is
// executing in an earlier batch: a request buffered meanwhile waits for that
// batch's tenants to return and merge with it, which keeps G lock-step
// sessions in one batch of G. Treating executing tenants as absent, or
// launching whenever the device is idle, splits them into out-of-phase
// groups that never re-merge. At Batch 1 (a CPU pool) the threshold launches
// every request alone and the quorum never decides. A server no
// tenant registers with has no quorum and batches by threshold and deadline
// alone. An explicit push (Flush, Close, a deadline-less Client.Wait)
// launches the buffer under no condition. One function states this rule,
// queue.step, and rule_test.go's checker walks every state it reaches.
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

	mu    sync.Mutex // guards q and timer; held only by do and the snapshots
	q     queue
	timer *time.Timer // the current generation's deadline timer, nil when none is armed

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
	s := &Server{cfg: cfg, q: queue{batch: cfg.Batch, deadline: cfg.FlushDeadline > 0}}
	s.backend.Store(&backend)
	if cfg.MaxOutstanding > 0 {
		s.sem = make(chan struct{}, cfg.MaxOutstanding)
	}
	if cfg.LaunchWorkers > 0 {
		// Queue capacity covers the backpressure bound so enqueueing a
		// launch never blocks a submitter that already holds a sem token.
		s.work = make(chan []*Request, max(cfg.LaunchWorkers*4, cfg.MaxOutstanding))
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
	return s.q.stats
}

// Pending returns the number of buffered (not yet launched) requests.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q.buf)
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
func (s *Server) Flush() { s.do(event{op: opPush}) }

// Close gracefully drains the service: the remaining partial batch is
// flushed and all in-flight launches complete. Submit after Close panics.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.do(event{op: opPush})
	s.inflight.Wait()
	if s.work != nil {
		close(s.work)
		s.launchers.Wait()
	}
}

// queue is the accelerator queue's state. Only step changes it.
type queue struct {
	batch    int  // the threshold
	deadline bool // the server has a flush deadline, so submits arm timers
	buf      []*Request
	slots    int // registered search slots: the quorum (0 = condition off)
	gen      int // buffer generation, ended by every launch
	stats    ServerStats
}

// event is one input to the launch rule.
type event struct {
	op  op
	req *Request // opSubmit, opWait
	n   int      // the slots of opBegin and opEnd, the generation of opDeadline
}

type op uint8

const (
	opSubmit   op = iota // Client.Submit buffers req
	opBegin              // Client.BeginSearch opens n slots
	opEnd                // Client.EndSearch gives back n slots
	opWait               // a deadline-less Client.Wait holds req
	opPush               // Flush or Close
	opDeadline           // the timer armed for generation n fired
)

// effect is what one step asks of the Server.
type effect struct {
	take    []*Request // the batch to launch, nil for none
	arm     bool       // arm a FlushDeadline timer that delivers opDeadline for gen
	gen     int
	refused bool // an EndSearch past the open slots: q is unchanged
}

// step is the launch rule: it applies e to q and says what to launch and
// whether to arm a timer. It starts no goroutine, takes no lock, reads no
// clock. A submit or an end launches the buffer when it meets the threshold,
// which wins a tie, or else the quorum; a begin launches nothing. Only a
// submit that leaves one request buffered on a deadline queue arms a timer.
// Every launch ends the buffer's generation, and the Server stops its timer,
// but Stop can lose the race with a callback already started: a deadline
// launches only the generation it was armed for. A push launches the buffer
// under no condition, and a wait only while its request is still buffered,
// so no timing of other launches can strand a waiter.
func (q *queue) step(e event) effect {
	n := len(q.buf)
	switch e.op {
	case opSubmit:
		q.buf = append(q.buf, e.req)
		n++
	case opBegin:
		q.slots += e.n
		return effect{}
	case opEnd:
		if e.n < 0 || e.n > q.slots {
			return effect{refused: true}
		}
		q.slots -= e.n
	case opWait, opPush:
		if n == 0 || e.op == opWait && !slices.Contains(q.buf, e.req) {
			return effect{}
		}
	case opDeadline:
		if n == 0 || e.n != q.gen {
			return effect{}
		}
		q.stats.DeadlineFlushes++
	}
	if e.op == opSubmit || e.op == opEnd {
		switch {
		case n >= q.batch:
			q.stats.ThresholdFlushes++
		case q.slots > 0 && n >= q.slots:
			q.stats.QuorumFlushes++
		default:
			return effect{arm: q.deadline && e.op == opSubmit && n == 1, gen: q.gen}
		}
	}
	take := q.buf
	q.buf = make([]*Request, 0, q.batch)
	q.gen++
	q.stats.Batches++
	q.stats.Requests += int64(n)
	return effect{take: take}
}

// Rule is the launch rule without a Server around it: no lock, no timer, no
// launch. Each call steps the rule once and returns the batch it launches,
// nil for none. It has no deadline, so it is the rule of a deadline-less
// Server, whose clock is the caller's: the simulated timelines of
// internal/simsched launch through it in virtual time.
type Rule struct{ q queue }

// NewRule returns the rule of a deadline-less Server of threshold batch.
func NewRule(batch int) *Rule { return &Rule{q: queue{batch: max(batch, 1)}} }

// Submit, Begin, End and Wait are Client.Submit, BeginSearch, EndSearch and a
// deadline-less Client.Wait.
func (r *Rule) Submit(req *Request) []*Request { return r.q.step(event{op: opSubmit, req: req}).take }
func (r *Rule) Begin(n int)                    { r.q.step(event{op: opBegin, n: n}) }
func (r *Rule) Wait(req *Request) []*Request   { return r.q.step(event{op: opWait, req: req}).take }
func (r *Rule) End(n int) []*Request {
	eff := r.q.step(event{op: opEnd, n: n})
	if eff.refused {
		panic("evaluate: EndSearch without a matching BeginSearch")
	}
	return eff.take
}

// do steps the launch rule under the lock and applies its effect to the
// deadline timer. Outside the lock it launches the batch taken, if any, on
// its own goroutine (the "CUDA stream" of Section 3.3), or via a persistent
// launcher when LaunchWorkers is set.
func (s *Server) do(e event) {
	s.mu.Lock()
	eff := s.q.step(e)
	if eff.take != nil && s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if eff.arm {
		gen := eff.gen
		s.timer = time.AfterFunc(s.cfg.FlushDeadline, func() { s.do(event{op: opDeadline, n: gen}) })
	}
	s.mu.Unlock()
	if eff.refused {
		panic("evaluate: EndSearch without a matching BeginSearch")
	}
	if eff.take == nil {
		return
	}
	s.inflight.Add(1)
	if s.work != nil {
		s.work <- eff.take
		return
	}
	go s.runAndDeliver(eff.take)
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
func (s *Server) NewSyncClient() *Client { return &Client{srv: s} }

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
	if c.srv.closed.Load() {
		panic("evaluate: Submit on closed Server")
	}
	if c.srv.sem != nil {
		c.srv.sem <- struct{}{}
	}
	c.srv.do(event{op: opSubmit, req: req})
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
	c.srv.do(event{op: opBegin, n: n})
}

// EndSearch gives back n of the slots BeginSearch opened, in one call or
// several, as soon as their contexts can no longer submit. If every
// remaining slot already has its request buffered, the buffer launches now,
// on a launch goroutine: the caller, typically about to answer its user,
// does not run the batch. Giving back more slots than are open panics.
func (c *Client) EndSearch(n int) {
	c.srv.do(event{op: opEnd, n: n})
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

// Wait implements Async. On a server with a flush deadline it only waits,
// taking no lock: the timer launches a buffered req.
func (c *Client) Wait(req *Request) {
	if c.srv.cfg.FlushDeadline == 0 {
		c.srv.do(event{op: opWait, req: req})
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
	c.drained = sync.NewCond(&c.mu)
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
	req.Input, req.Policy, req.Value, req.client = nil, nil, 0, nil
	select { // drop a stray completion signal so reuse starts clean
	case <-req.done:
	default:
	}
	requestPool.Put(req)
}
