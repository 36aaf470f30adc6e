package accel

import (
	"fmt"
	"sort"
	"sync"

	"github.com/parmcts/parmcts/internal/nn"
)

// Backend is the pluggable accelerator seam: a Device plus an explicit
// lifecycle. Every built-in device implements it, and binaries select one by
// name via NewBackend instead of hard-wiring a constructor.
type Backend interface {
	Device
	// Close releases pooled resources. The backend must not be used after
	// Close; Close is idempotent.
	Close() error
}

// BackendSpec carries everything a backend factory might need. Factories use
// the fields relevant to them and must error on missing requirements rather
// than guessing.
type BackendSpec struct {
	// Net is the network (required by "hosted").
	Net *nn.Network
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
}

// Close implements Backend. The latency model holds no resources.
func (d *Model) Close() error { return nil }

// Close implements Backend: pooled workspaces are released.
func (d *Hosted) Close() error {
	d.pool.drain()
	return nil
}
