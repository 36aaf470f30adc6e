// Package evaluate provides the node-evaluation backends
// ("neural_network_simulate" in Algorithms 2 and 3) in the two flavours the
// paper's schemes need:
//
//   - NN: synchronous on-thread inference — one shared-tree worker
//     evaluating its own leaf on its own CPU thread.
//   - NewPool: an asynchronous worker pool over any synchronous evaluator —
//     the local-tree scheme's N inference threads fed by FIFO pipes.
//
// NewPool is a one-tenant deployment of the multi-tenant inference Server
// (see server.go), the batcher multi-game drivers share across G searches:
// it returns the Client itself, which owns and closes its private Server. The
// accelerator configurations of Section 3.3 need no flavour of their own:
// local-tree + GPU (sub-batch B, the subject of the Algorithm 4 search) is a
// Client of a Server with threshold B that the master drives through Submit
// and Wait, shared-tree + GPU (N workers' simultaneous requests form one
// full batch) a Client whose workers each block in Evaluate (as serve
// sessions and arena gates do), and either Server runs an accel.Link, the
// simulated accelerator wrapped around an EvaluatorBackend. Both are the one
// kind of Client, Server.NewSyncClient, and both learn of a completion from
// the request itself: every request carries its own signal, so a caller
// always knows which evaluation it has waited for. The Server is also the
// accelerator queue, and one pure function, queue.step, decides every
// launch: threshold, quorum or an explicit push. No clock launches a batch.
// A Random evaluator with a configurable synthetic
// latency supports the design-time profiling runs, which the paper performs
// with a DNN "filled with random parameters".
//
// What a launched batch costs is the Backend's business. EvaluatorBackend —
// the one every production binary builds — cuts the batch into at most
// Workers contiguous chunks and runs each request of a chunk as one Evaluate,
// in order. The network's forward is over one sample (nn.Network.Forward), so
// NN.Evaluate is the whole of a CPU evaluation. On a CPU every Server is a
// pool of Batch 1, so a launch is one request; batches of more form only in
// front of an accelerator, whose Link spreads them over the cores this way.
// Executing a batch allocates nothing beyond the cache's stored policy per
// miss.
//
// A Server holds one Backend at a time. Algorithm 1 changes the weights
// between training rounds, never inside one, so SwapBackend simply replaces
// the backend and the caller swaps where no game is in flight (dist.Worker's
// round barrier). Nothing in the package tracks model versions: a cache View
// only keeps one network's entries apart from another's in a shared table.
package evaluate

import (
	"time"

	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// Request is one in-flight node evaluation. The requester allocates Policy;
// the evaluator fills Policy and Value. A request may be submitted again
// once its previous evaluation has been waited for.
type Request struct {
	Input  []float32
	Policy []float32
	Value  float64

	// client is the tenant that submitted the request, whose outstanding
	// count its delivery settles.
	client *Client
	// done is the request's completion signal: 1-buffered and signalled by
	// send, so it survives reuse. Pooled requests come with one; Submit
	// makes it for any other on first use.
	done chan struct{}
}

// Evaluator evaluates one state synchronously on the caller's goroutine.
type Evaluator interface {
	// Evaluate fills policy and returns the value estimate for input.
	Evaluate(input []float32, policy []float32) float64
}

// Async is the asynchronous interface used by the local-tree master thread;
// *Client is its implementation. Each request carries its own completion
// signal, so the caller chooses which evaluation it waits for, and in what
// order.
type Async interface {
	// Submit enqueues a request and returns without waiting for it.
	Submit(*Request)
	// Wait blocks until a submitted request's evaluation is delivered. A
	// caller outside any quorum (see Client.BeginSearch) first pushes the
	// partial batch holding the request, which nothing else would launch,
	// so a caller waiting on its own buffered request cannot deadlock.
	Wait(*Request)
	// Close releases worker goroutines. No Submit may follow.
	Close()
}

// NN evaluates with the real network, sharing one immutable parameter set
// across any number of calling goroutines via pooled workspaces.
type NN struct {
	pool *nn.ForwardPool
}

// NewNN creates a synchronous network evaluator.
func NewNN(net *nn.Network) *NN {
	return &NN{pool: nn.NewForwardPool(net)}
}

// Evaluate implements Evaluator: one pooled nn.Network.Forward, writing
// straight into policy.
func (e *NN) Evaluate(input []float32, policy []float32) float64 {
	return e.pool.Forward(input, policy)
}

// Random produces deterministic pseudo-random priors and near-zero values,
// burning a configurable synthetic latency. It stands in for the DNN during
// design-time profiling (T_DNN is then fully controlled) and in engine
// correctness tests where network quality is irrelevant.
type Random struct {
	// Latency is the busy-wait cost per evaluation (0 = free).
	Latency time.Duration
}

// Evaluate implements Evaluator.
func (e *Random) Evaluate(input []float32, policy []float32) float64 {
	if e.Latency > 0 {
		deadline := time.Now().Add(e.Latency)
		for time.Now().Before(deadline) {
		}
	}
	var h uint64 = 0xA5A5A5A5
	for i := 0; i < len(input); i += 11 {
		if input[i] != 0 {
			h = h*0x100000001B3 + uint64(i)
		}
	}
	r := rng.New(h)
	var sum float32
	for i := range policy {
		p := r.Float32() + 1e-3
		policy[i] = p
		sum += p
	}
	inv := 1 / sum
	for i := range policy {
		policy[i] *= inv
	}
	return r.Float64()*0.2 - 0.1
}

// NewPool runs a synchronous evaluator on a fixed set of worker goroutines —
// the local-tree scheme's inference thread pool (Figure 2a) — evaluating
// with eval on up to workers concurrent evaluations. It is a one-tenant
// deployment of the shared Server: batch size 1 (nothing is ever buffered),
// an EvaluatorBackend bounding concurrency to the worker count, and
// backpressure standing in for the bounded FIFO pipe. Closing the returned
// client closes the server.
func NewPool(eval Evaluator, workers int) *Client {
	if workers < 1 {
		panic("evaluate: pool needs at least one worker")
	}
	srv := NewServer(&EvaluatorBackend{Eval: eval, Workers: workers}, ServerConfig{
		Batch:          1,
		MaxOutstanding: workers * 4,
		// Persistent launchers: one long-lived goroutine per inference
		// thread, exactly the seed pool's topology — no per-playout spawn.
		LaunchWorkers: workers,
	})
	c := srv.NewSyncClient()
	c.ownsServer = true
	return c
}
