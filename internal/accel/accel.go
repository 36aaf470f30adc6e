// Package accel simulates the DNN inference accelerator of Section 3.3.
//
// The paper offloads batched node evaluations to an RTX A6000 over PCIe 4.0
// and tunes the CUDA-stream sub-batch size B. No GPU is available (or
// required) here: the performance models (Equations 4 and 6) consume only
// the accelerator's *latency profile* — a fixed per-launch cost L, a link
// bandwidth term, and a batch-compute curve T_GPU(B) — which is CostModel.
//
// The simulated accelerator is that cost model wrapped around a backend that
// computes: Link is an evaluate.Backend that spends the modeled transfer time
// of a batch (overlapping with other submissions, like CUDA streams), then
// its modeled compute time and the wrapped backend's RunBatch under a
// one-slot device token (kernels from different streams share one GPU). The
// CPU and accelerator platforms differ by that Link and nothing else.
// NewBackend builds the two registered Links:
//
//   - "hosted" wraps evaluate.EvaluatorBackend over evaluate.NN — the backend
//     every production binary serves through, one network forward per
//     request, the batch's requests shared between the Workers cores — so
//     its outputs are that path's bit for bit. Used by the training
//     experiments (Figures 6-7) where real outputs matter.
//
//   - "model" wraps the same backend over Synthetic: deterministic policies
//     and values derived from each input (the paper's design-time profiling
//     likewise runs the DNN "filled with random parameters"). Used where only
//     the modeled latency matters.
package accel

import (
	"sync"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/rng"
)

// CostModel parameterises the latency behaviour of a simulated accelerator.
// All quantities map one-to-one onto the symbols of Equations 4 and 6.
type CostModel struct {
	// LaunchLatency is L: the fixed communication + kernel-launch latency
	// paid once per batch submission.
	LaunchLatency time.Duration
	// BytesPerSample is the PCIe payload of one inference request.
	BytesPerSample int
	// LinkBytesPerSec is the PCIe bandwidth (<= 0: no bandwidth term).
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

// BandwidthTime returns the time n samples take to cross the link:
// n*bytes/bandwidth, or 0 when the model has no bandwidth.
func (m CostModel) BandwidthTime(n int) time.Duration {
	if m.LinkBytesPerSec <= 0 {
		return 0
	}
	bytes := float64(n * m.BytesPerSample)
	return time.Duration(bytes/m.LinkBytesPerSec*1e9) * time.Nanosecond
}

// TransferTime returns the PCIe cost of one batch submission:
// L + batch*bytes/bandwidth. Summed over N/B submissions this is exactly
// the paper's T_PCIe = (N/B)*L + N/bandwidth.
func (m CostModel) TransferTime(batch int) time.Duration {
	return m.LaunchLatency + m.BandwidthTime(batch)
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

// Link is the simulated accelerator: Cost wrapped around Inner, which does
// the computing. It is an evaluate.Backend, safe for concurrent use, and
// concurrent RunBatch calls behave like submissions on separate CUDA streams.
type Link struct {
	Cost  CostModel
	Inner evaluate.Backend

	once   sync.Once
	device chan struct{} // the one compute slot
}

// RunBatch implements evaluate.Backend: it spends the batch's transfer time,
// which overlaps with other submissions', then takes the device, spends the
// compute time, runs Inner and gives the device back.
func (l *Link) RunBatch(batch []*evaluate.Request) {
	l.once.Do(func() { l.device = make(chan struct{}, 1) })
	spin(l.Cost.TransferTime(len(batch)))
	l.device <- struct{}{}
	spin(l.Cost.ComputeTime(len(batch)))
	l.Inner.RunBatch(batch)
	<-l.device
}

// inferViews is the request form of one Infer call, pooled so a recurring
// batch size allocates none of it.
type inferViews struct {
	reqs []evaluate.Request
	ptrs []*evaluate.Request
}

var inferViewPool = sync.Pool{New: func() any { return new(inferViews) }}

// Infer is RunBatch for a caller holding slices instead of requests: it fills
// policies[i] and values[i] for every inputs[i]. It goes when cmd/bench's
// hosted probe, its only caller, moves onto RunBatch.
func (l *Link) Infer(inputs, policies [][]float32, values []float64) {
	n := len(inputs)
	v := inferViewPool.Get().(*inferViews)
	if cap(v.reqs) < n {
		v.reqs, v.ptrs = make([]evaluate.Request, n), make([]*evaluate.Request, n)
	}
	reqs, ptrs := v.reqs[:n], v.ptrs[:n]
	for i := range reqs {
		reqs[i] = evaluate.Request{Input: inputs[i], Policy: policies[i]}
		ptrs[i] = &reqs[i]
	}
	l.RunBatch(ptrs)
	for i := range reqs {
		values[i] = reqs[i].Value
		reqs[i] = evaluate.Request{}
	}
	inferViewPool.Put(v)
}

// Close ends the Link's use; it holds nothing the garbage collector does not
// reclaim, so it is idempotent and always nil. It goes with Infer.
func (l *Link) Close() error { return nil }

// Synthetic is the "model" backend's evaluator: a deterministic pseudo
// policy and value derived from the input's content, so searches against it
// are reproducible and not degenerate (different states get different
// priors).
type Synthetic struct{}

// Evaluate implements evaluate.Evaluator.
func (Synthetic) Evaluate(input []float32, policy []float32) float64 {
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
	return r.Float64()*0.2 - 0.1 // small values: keeps search exploratory
}
