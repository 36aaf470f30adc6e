// Package accel simulates the DNN inference accelerator of Section 3.3.
//
// The paper offloads batched node evaluations to an RTX A6000 over PCIe 4.0
// and tunes the CUDA-stream sub-batch size B. No GPU is available (or
// required) here: the performance models (Equations 4 and 6) consume only
// the accelerator's *latency profile* — a fixed per-launch cost L, a link
// bandwidth term, and a batch-compute curve T_GPU(B) — so the package
// provides devices that expose exactly those quantities:
//
//   - Model: a pure latency-model device. It returns deterministic
//     synthetic policies/values (the paper's design-time profiling likewise
//     runs the DNN "filled with random parameters") and spends modeled
//     wall-clock time. Concurrent submissions pipeline like CUDA streams:
//     transfers overlap compute, compute serialises on the device. Used by
//     the latency experiments (Figures 3-5) and the batch-size search.
//
//   - Hosted: computes the real Go network, parallelised across the batch
//     on the host's cores, with the modeled launch+transfer latency
//     injected. It computes on the network's one forward, the pooled
//     nn.ForwardBatch evaluate.NN — what every production binary runs — uses
//     for single positions and batches alike, so its outputs are that path's
//     bit for bit. Used by the training experiments (Figures 6-7) where real
//     outputs matter.
package accel

import (
	"runtime"
	"sync"
	"time"

	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// Device is a batched inference backend.
type Device interface {
	// Name identifies the device in reports.
	Name() string
	// Infer evaluates a batch. policies[i] must be preallocated by the
	// caller; values[i] is written in place. Infer blocks for the device's
	// (modeled or actual) latency and is safe for concurrent use —
	// concurrent calls behave like submissions on separate CUDA streams.
	Infer(inputs [][]float32, policies [][]float32, values []float64)
}

// CostModel parameterises the latency behaviour of a simulated accelerator.
// All quantities map one-to-one onto the symbols of Equations 4 and 6.
type CostModel struct {
	// LaunchLatency is L: the fixed communication + kernel-launch latency
	// paid once per batch submission.
	LaunchLatency time.Duration
	// BytesPerSample is the PCIe payload of one inference request.
	BytesPerSample int
	// LinkBytesPerSec is the PCIe bandwidth.
	LinkBytesPerSec float64
	// ComputeBase is the fixed kernel execution time independent of batch.
	ComputeBase time.Duration
	// ComputePerSample is the marginal kernel time per batched sample.
	ComputePerSample time.Duration
}

// DefaultCostModel returns magnitudes representative of the paper's
// platform (PCIe 4.0 x16, a mid-size conv net on a large GPU).
func DefaultCostModel() CostModel {
	return CostModel{
		LaunchLatency:    30 * time.Microsecond,
		BytesPerSample:   4 * 15 * 15 * 4, // 4 planes of a 15x15 board, float32
		LinkBytesPerSec:  16e9,
		ComputeBase:      40 * time.Microsecond,
		ComputePerSample: 2 * time.Microsecond,
	}
}

// TransferTime returns the PCIe cost of one batch submission:
// L + batch*bytes/bandwidth. Summed over N/B submissions this is exactly
// the paper's T_PCIe = (N/B)*L + N/bandwidth.
func (m CostModel) TransferTime(batch int) time.Duration {
	bytes := float64(batch * m.BytesPerSample)
	return m.LaunchLatency + time.Duration(bytes/m.LinkBytesPerSec*1e9)*time.Nanosecond
}

// ComputeTime returns T_GPU_DNN(batch=B), monotonically increasing in B as
// observed in Section 4.2.
func (m CostModel) ComputeTime(batch int) time.Duration {
	return m.ComputeBase + time.Duration(batch)*m.ComputePerSample
}

// spin waits for d. Durations at or above the scheduler's sleep granularity
// use time.Sleep, which frees the core so concurrent submissions genuinely
// overlap even on small hosts; shorter waits busy-spin to stay accurate.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= 500*time.Microsecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// Model is the pure latency-model device.
type Model struct {
	model CostModel
	// computeMu serialises the compute phase across concurrent submissions,
	// emulating kernels from different CUDA streams sharing one GPU while
	// transfers overlap with compute.
	computeMu sync.Mutex
}

// NewModel creates a latency-model device.
func NewModel(model CostModel) *Model { return &Model{model: model} }

// Name implements Device.
func (d *Model) Name() string { return "sim-gpu(model)" }

// Infer implements Device: it spends the modeled transfer time (overlapping
// with other streams), then the modeled compute time (serialised), and
// fills deterministic synthetic outputs derived from each input's content.
func (d *Model) Infer(inputs [][]float32, policies [][]float32, values []float64) {
	spin(d.model.TransferTime(len(inputs)))
	d.computeMu.Lock()
	spin(d.model.ComputeTime(len(inputs)))
	d.computeMu.Unlock()
	for i, in := range inputs {
		synthesize(in, policies[i], &values[i])
	}
}

// synthesize produces a deterministic pseudo policy/value from the input
// content so searches against the Model device are reproducible and not
// degenerate (different states get different priors).
func synthesize(input []float32, policy []float32, value *float64) {
	var h uint64 = 0x9E3779B97F4A7C15
	for i := 0; i < len(input); i += 7 {
		if input[i] != 0 {
			h ^= uint64(i+1) * 0xBF58476D1CE4E5B9
			h = (h << 13) | (h >> 51)
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
	*value = r.Float64()*0.2 - 0.1 // small values: keeps search exploratory
}

// Hosted computes the real network on host cores with modeled
// launch/transfer latency injected. Batches run through the genuinely
// batched nn.ForwardBatch (each layer runs the whole sub-batch against one
// weight panel) rather than a per-sample loop.
type Hosted struct {
	model   CostModel
	workers int
	// pool is the network's pooled batched forward: workspaces are reused
	// across Infer calls, so recurring batch sizes stay allocation-free.
	pool      *nn.BatchWorkspacePool
	computeMu sync.Mutex
}

// NewHosted creates a hosted device that splits each batch across up to
// workers sub-batches evaluated concurrently (0 = GOMAXPROCS).
func NewHosted(net *nn.Network, model CostModel, workers int) *Hosted {
	return &Hosted{model: model, workers: workers, pool: nn.NewBatchWorkspacePool(net)}
}

// Name implements Device.
func (d *Hosted) Name() string { return "sim-gpu(hosted)" }

// Infer implements Device: the batch is split into contiguous per-worker
// sub-batches, each evaluated with one batched forward pass. As on the real
// accelerator, compute serialises across concurrent submissions while
// transfers overlap.
func (d *Hosted) Infer(inputs [][]float32, policies [][]float32, values []float64) {
	n := len(inputs)
	if n == 0 {
		return
	}
	spin(d.model.TransferTime(n))
	d.computeMu.Lock()
	defer d.computeMu.Unlock()
	ForChunks(n, d.workers, func(lo, hi int) {
		d.pool.ForwardBatch(inputs[lo:hi], policies[lo:hi], values[lo:hi])
	})
}

// ForChunks splits [0, n) into at most w contiguous chunks of equal size (the
// last may be shorter; w <= 0 means GOMAXPROCS), runs fn on each — the first
// on the caller's goroutine, every other on its own — and returns once all
// have. It is how a formed batch is shared between cores: Hosted splits an
// Infer with it, evaluate.EvaluatorBackend a RunBatch.
func ForChunks(n, w int, fn func(lo, hi int)) {
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
