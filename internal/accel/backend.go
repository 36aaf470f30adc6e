package accel

import (
	"fmt"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/nn"
)

// BackendSpec carries everything a backend might need. A backend uses the
// fields relevant to it and errors on a missing requirement rather than
// guessing.
type BackendSpec struct {
	// Net is the network (required by "hosted").
	Net *nn.Network
	// Cost is the simulated accelerator latency profile.
	Cost CostModel
	// Workers bounds per-batch parallelism (0 = GOMAXPROCS).
	Workers int
}

// NewBackend constructs the named Link. Unknown names report the available
// set.
func NewBackend(name string, spec BackendSpec) (*Link, error) {
	var eval evaluate.Evaluator
	switch name {
	case "model":
		eval = Synthetic{}
	case "hosted":
		if spec.Net == nil {
			return nil, fmt.Errorf("accel: backend \"hosted\" requires a network")
		}
		eval = evaluate.NewNN(spec.Net)
	default:
		return nil, fmt.Errorf("accel: unknown backend %q (have %v)", name, BackendNames())
	}
	return &Link{Cost: spec.Cost, Inner: &evaluate.EvaluatorBackend{Eval: eval, Workers: spec.Workers}}, nil
}

// BackendNames returns the names NewBackend accepts, sorted.
func BackendNames() []string { return []string{"hosted", "model"} }
