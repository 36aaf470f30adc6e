package accel

import (
	"fmt"
	"sort"
	"sync"

	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/tensor"
)

// Capabilities describes what an inference backend actually computes, so
// callers (arena gates, experiment drivers, report headers) can reason about
// a backend without knowing its concrete type.
type Capabilities struct {
	// RealOutputs is true when policies/values come from a real network
	// forward pass (Hosted, HostedQuantized) rather than the latency model's
	// synthetic outputs.
	RealOutputs bool
	// Quantized is true when inference runs the int8 path.
	Quantized bool
	// Kernel is the tensor micro-kernel class dispatched at construction
	// ("generic", "sse", "avx2").
	Kernel string
}

// Backend is the pluggable accelerator seam: a Device plus introspection and
// an explicit lifecycle. Every built-in device implements it, and binaries
// select one by name via NewBackend instead of hard-wiring a constructor.
type Backend interface {
	Device
	// Capabilities reports what this backend computes.
	Capabilities() Capabilities
	// Close releases pooled resources. The backend must not be used after
	// Close; Close is idempotent.
	Close() error
}

// BackendSpec carries everything a backend factory might need. Factories use
// the fields relevant to them and must error on missing requirements rather
// than guessing.
type BackendSpec struct {
	// Net is the fp32 network (required by "hosted", and by
	// "hosted-quantized" when Quant is nil only for its config).
	Net *nn.Network
	// Quant is the quantized network for int8 backends. Required by
	// "hosted-quantized": quantization needs calibration data the backend
	// layer cannot invent.
	Quant *nn.QuantizedNetwork
	// Cost is the simulated accelerator latency profile.
	Cost CostModel
	// Workers bounds per-Infer parallelism (0 = GOMAXPROCS).
	Workers int
}

// Factory constructs a backend from a spec.
type Factory func(spec BackendSpec) (Backend, error)

var (
	backendsMu sync.RWMutex
	backends   = map[string]Factory{}
)

// RegisterBackend makes a backend constructible by name. Duplicate names
// panic: backend names are compile-time wiring, not runtime input.
func RegisterBackend(name string, f Factory) {
	backendsMu.Lock()
	defer backendsMu.Unlock()
	if _, dup := backends[name]; dup {
		panic("accel: duplicate backend " + name)
	}
	backends[name] = f
}

// NewBackend constructs the named backend. Unknown names report the
// available set.
func NewBackend(name string, spec BackendSpec) (Backend, error) {
	backendsMu.RLock()
	f, ok := backends[name]
	backendsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("accel: unknown backend %q (have %v)", name, BackendNames())
	}
	return f(spec)
}

// BackendNames returns the registered backend names, sorted.
func BackendNames() []string {
	backendsMu.RLock()
	defer backendsMu.RUnlock()
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterBackend("model", func(spec BackendSpec) (Backend, error) {
		return NewModel(spec.Cost), nil
	})
	RegisterBackend("hosted", func(spec BackendSpec) (Backend, error) {
		if spec.Net == nil {
			return nil, fmt.Errorf("accel: backend \"hosted\" requires a network")
		}
		return NewHosted(spec.Net, spec.Cost, spec.Workers), nil
	})
	RegisterBackend("hosted-quantized", func(spec BackendSpec) (Backend, error) {
		if spec.Quant == nil {
			return nil, fmt.Errorf("accel: backend \"hosted-quantized\" requires a calibrated quantized network")
		}
		return NewHostedQuantized(spec.Quant, spec.Cost, spec.Workers), nil
	})
}

// Capabilities implements Backend.
func (d *Model) Capabilities() Capabilities {
	return Capabilities{Kernel: tensor.KernelName()}
}

// Close implements Backend. The latency model holds no resources.
func (d *Model) Close() error { return nil }

// Capabilities implements Backend.
func (d *Hosted) Capabilities() Capabilities {
	return Capabilities{RealOutputs: true, Kernel: tensor.KernelName()}
}

// Close implements Backend: pooled workspaces are released.
func (d *Hosted) Close() error {
	d.pool.drain()
	return nil
}

// HostedQuantized is Hosted's int8 sibling: the real network computed on
// host cores through nn.ForwardBatchQuantized, with the same modeled
// launch/transfer latency and compute serialisation. It is constructed from
// an already-calibrated nn.QuantizedNetwork — typically derived from a
// promoted checkpoint with replay-buffer calibration samples — and gated
// through the arena like any other candidate model version before serving.
type HostedQuantized struct {
	qnet      *nn.QuantizedNetwork
	model     CostModel
	workers   int
	pool      *wsPool[*nn.QuantWorkspace]
	computeMu sync.Mutex
}

// NewHostedQuantized creates a quantized hosted device splitting each batch
// across up to workers sub-batches (0 = GOMAXPROCS).
func NewHostedQuantized(qnet *nn.QuantizedNetwork, model CostModel, workers int) *HostedQuantized {
	d := &HostedQuantized{qnet: qnet, model: model, workers: workers}
	d.pool = newWSPool(func(capB int) *nn.QuantWorkspace { return qnet.NewWorkspace(capB) })
	return d
}

// Name implements Device.
func (d *HostedQuantized) Name() string { return "sim-gpu(hosted-int8)" }

// Capabilities implements Backend.
func (d *HostedQuantized) Capabilities() Capabilities {
	return Capabilities{RealOutputs: true, Quantized: true, Kernel: tensor.KernelName()}
}

// Close implements Backend.
func (d *HostedQuantized) Close() error {
	d.pool.drain()
	return nil
}

// Infer implements Device with the same submission semantics as Hosted.
func (d *HostedQuantized) Infer(inputs [][]float32, policies [][]float32, values []float64) {
	n := len(inputs)
	if n == 0 {
		return
	}
	spin(d.model.TransferTime(n))
	d.computeMu.Lock()
	defer d.computeMu.Unlock()
	ForChunks(n, d.workers, func(lo, hi int) {
		ws := d.pool.get(hi - lo)
		d.qnet.ForwardBatchQuantized(ws, inputs[lo:hi], policies[lo:hi], values[lo:hi])
		d.pool.put(ws)
	})
}
