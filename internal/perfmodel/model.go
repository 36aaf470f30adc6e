// Package perfmodel implements Section 4 of the paper: the high-level
// performance models for the two tree-parallel schemes (Equations 3-6), the
// design-time profiling that supplies their inputs, the O(log N) V-sequence
// search for the accelerator sub-batch size (Algorithm 4), and the design
// configuration workflow that ties them together.
//
// Params is the one design-time profile: the models, the timeline simulator
// (internal/simsched, which launches its batches through evaluate's launch
// rule) and the figure generators all consume it. The
// accelerator equations (4, 6) and the Algorithm 4 driver (ConfigureGPU) take
// the number G of co-located searches sharing the device as an argument; the
// paper's single search is G = 1.
package perfmodel

import (
	"time"

	"github.com/parmcts/parmcts/internal/accel"
)

// Scheme identifies a tree-parallel implementation.
type Scheme int

// The two schemes the adaptive framework chooses between.
const (
	SchemeShared Scheme = iota
	SchemeLocal
)

// String returns the scheme name.
func (s Scheme) String() string {
	if s == SchemeShared {
		return "shared"
	}
	return "local"
}

// Params holds the profiled application/hardware quantities the models
// consume (Section 4.2). All per-iteration latencies are for a single
// worker on a single thread.
type Params struct {
	// TSelect and TBackup are the amortized per-iteration in-tree operation
	// latencies measured on a synthetic tree with the target fanout/depth.
	TSelect time.Duration
	TBackup time.Duration
	// TDNNCPU is the single-threaded CPU inference latency for one state.
	TDNNCPU time.Duration
	// TSharedAccess is the shared-memory (DDR) access latency each worker
	// pays when touching contended nodes near the root; the paper estimates
	// it "as the DDR access latency documented for the target CPU".
	TSharedAccess time.Duration
	// GPU, when non-nil, describes the accelerator (Equations 4 and 6).
	GPU *accel.CostModel
}

// SharedCPU evaluates Equation 3: the latency of one round of N worker
// iterations under the shared-tree scheme on a CPU,
//
//	T ≈ T_shared_access*N + T_select + T_backup + T_DNN_CPU
//
// The in-tree operations of the N workers overlap except for the serialised
// root-level communication (the N*T_access term); each worker then runs its
// own DNN inference on its own thread.
func SharedCPU(p Params, n int) time.Duration {
	return time.Duration(n)*p.TSharedAccess + p.TSelect + p.TBackup + p.TDNNCPU
}

// LocalCPU evaluates Equation 5: one round of N iterations under the
// local-tree scheme on a CPU,
//
//	T ≈ max((T_select+T_backup)*N, T_DNN_CPU)
//
// The master's N sequential in-tree operations overlap with the worker
// pool's N parallel inferences; whichever is longer bounds the round.
func LocalCPU(p Params, n int) time.Duration {
	inTree := time.Duration(n) * (p.TSelect + p.TBackup)
	if inTree > p.TDNNCPU {
		return inTree
	}
	return p.TDNNCPU
}

// SharedGPU evaluates Equation 4 for G co-located shared-tree searches whose
// synchronous full batches one inference service aggregates: Equation 3 with
// the DNN term replaced by an accelerator call of batch G*N (Section 3.3
// prescribes the full batch N for the shared scheme; G = 1 is the paper's
// single search). Each tenant's workers still pay their own serialized tree
// access and selection; the batch round-trip is shared.
func SharedGPU(p Params, n, g int) time.Duration {
	if p.GPU == nil {
		panic("perfmodel: SharedGPU requires Params.GPU")
	}
	if g < 1 {
		g = 1
	}
	gpu := p.GPU.TransferTime(g*n) + p.GPU.ComputeTime(g*n)
	return time.Duration(n)*p.TSharedAccess + p.TSelect + p.TBackup + gpu
}

// PCIeTime evaluates the T_PCIe term of Equation 6 for n total samples
// moved in sub-batches of b: (n/b) launches each costing L, plus the
// bandwidth term for all n samples.
func PCIeTime(m accel.CostModel, n, b int) time.Duration {
	launches := (n + b - 1) / b
	return time.Duration(launches)*m.LaunchLatency + m.BandwidthTime(n)
}

// LocalGPU evaluates Equation 6 for G concurrent local-tree masters sharing
// one inference service with aggregate batch threshold B (G = 1 is the
// paper's single search, B its sub-batch on N/B streams):
//
//	T ≈ max((T_select+T_backup)*N, T_PCIe(G*N, B)/G, T_GPU_compute(batch=B))
//
// Per tenant round (N iterations) the service moves G*N samples in batches
// of B, so the per-launch cost L amortizes over the aggregate fill — with
// G > 1, B may exceed one tenant's in-flight bound N. The in-tree term is
// per master (each runs on its own core); the PCIe term is the aggregate
// cost shared G ways; the compute term is the per-batch kernel time.
// Section 4.2 establishes that the first two terms are non-increasing in B
// and the third non-decreasing, making the sequence over B in [1, G*N] a
// V-sequence.
func LocalGPU(p Params, n, b, g int) time.Duration {
	if p.GPU == nil {
		panic("perfmodel: LocalGPU requires Params.GPU")
	}
	if g < 1 {
		g = 1
	}
	if b < 1 {
		b = 1
	}
	if b > g*n {
		b = g * n
	}
	inTree := time.Duration(n) * (p.TSelect + p.TBackup)
	pcie := PCIeTime(*p.GPU, g*n, b) / time.Duration(g)
	compute := p.GPU.ComputeTime(b)
	m := inTree
	if pcie > m {
		m = pcie
	}
	if compute > m {
		m = compute
	}
	return m
}

// PerIteration converts a round latency into the paper's amortized
// per-worker-iteration metric.
func PerIteration(round time.Duration, n int) time.Duration {
	if n < 1 {
		return round
	}
	return round / time.Duration(n)
}

// DefaultSharedAccess is a representative DDR round-trip latency for a
// many-core workstation CPU, used when no measured value is supplied.
const DefaultSharedAccess = 90 * time.Nanosecond
