package accel

import (
	"fmt"

	"github.com/parmcts/parmcts/internal/nn"
)

// Backend is the pluggable accelerator seam: a Device plus an explicit
// lifecycle. Every built-in device implements it, and binaries select one by
// name via NewBackend instead of hard-wiring a constructor.
type Backend interface {
	Device
	// Close ends the backend's use; it is idempotent. The built-in devices
	// hold nothing the garbage collector does not reclaim.
	Close() error
}

// BackendSpec carries everything a backend might need. A backend uses the
// fields relevant to it and errors on a missing requirement rather than
// guessing.
type BackendSpec struct {
	// Net is the network (required by "hosted").
	Net *nn.Network
	// Cost is the simulated accelerator latency profile.
	Cost CostModel
	// Workers bounds per-Infer parallelism (0 = GOMAXPROCS).
	Workers int
}

// NewBackend constructs the named backend. Unknown names report the
// available set.
func NewBackend(name string, spec BackendSpec) (Backend, error) {
	switch name {
	case "model":
		return NewModel(spec.Cost), nil
	case "hosted":
		if spec.Net == nil {
			return nil, fmt.Errorf("accel: backend \"hosted\" requires a network")
		}
		return NewHosted(spec.Net, spec.Cost, spec.Workers), nil
	}
	return nil, fmt.Errorf("accel: unknown backend %q (have %v)", name, BackendNames())
}

// BackendNames returns the names NewBackend accepts, sorted.
func BackendNames() []string { return []string{"hosted", "model"} }

// Close implements Backend. The latency model holds no resources.
func (d *Model) Close() error { return nil }

// Close implements Backend. Pooled workspaces go with the device.
func (d *Hosted) Close() error { return nil }
