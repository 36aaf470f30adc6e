// Package adaptive is the paper's primary contribution assembled into one
// public entry point: given a game, an evaluator (or a simulated
// accelerator), and a worker budget, it runs the design configuration
// workflow of Section 4.2 — profile, model, and (on accelerator platforms)
// the Algorithm 4 batch-size search — and instantiates the predicted-fastest
// tree-parallel engine behind the common mcts.Engine interface.
//
// One builder (buildFleet) turns a decision into engines; a single engine
// (Configure) is a fleet of one. NewLocalFleet is the part of it training
// drivers call directly: G local-tree masters on one worker-pool Server.
//
// This is the programmatic equivalent of the paper's "compile-time"
// selection: configuration happens once per (algorithm, hardware, N)
// triple, and the chosen scheme then runs unchanged for the whole training
// job.
package adaptive

import (
	"fmt"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/perfmodel"
)

// Platform selects where DNN inference runs.
type Platform int

// Supported platforms.
const (
	// PlatformCPU runs inference on CPU threads (Equations 3 and 5).
	PlatformCPU Platform = iota
	// PlatformAccel offloads batched inference to an accelerator device
	// (Equations 4 and 6).
	PlatformAccel
)

// String names the platform.
func (p Platform) String() string {
	if p == PlatformCPU {
		return "cpu"
	}
	return "cpu-accel"
}

// Options configures the adaptive framework.
type Options struct {
	// Search holds the MCTS hyper-parameters (playouts, PUCT, noise).
	Search mcts.Config
	// Workers is N, the parallel worker budget.
	Workers int
	// Platform selects CPU or accelerator inference.
	Platform Platform
	// Evaluator performs CPU inference (required for PlatformCPU).
	Evaluator evaluate.Evaluator
	// Link is the simulated accelerator (required for PlatformAccel): the
	// Server runs it, and Equations 4/6 read its Cost.
	Link *accel.Link
	// ProfilePlayouts sizes the design-time profiling episode (0 = 400).
	ProfilePlayouts int
	// DNNProfileIters sizes the T_DNN measurement (0 = 30).
	DNNProfileIters int
	// TestRun, when non-nil, replaces Equation 6 with real measured test
	// runs during the batch-size search, exactly as Algorithm 4 line 5
	// prescribes. It receives a candidate B and must return the amortized
	// round latency of a single-move search using that sub-batch size.
	// It is a SINGLE-search probe: ConfigureFleet ignores it for G > 1
	// (the widened [1, G*N] threshold search uses the analytic G-tenant
	// model; supply a fleet-aware probe to perfmodel.ConfigureGPU directly
	// if you have one).
	TestRun func(b int) time.Duration
	// ForceScheme, when non-nil, overrides the scheme the models picked
	// (used by the baseline configurations in the evaluation harness); the
	// decision still carries both predictions and the tuned batch size.
	ForceScheme *perfmodel.Scheme
}

// Decision records what the configuration workflow chose and why.
type Decision struct {
	Choice perfmodel.Choice
	Params perfmodel.Params
	// InTree is the synthetic-tree profile behind Params.
	InTree perfmodel.InTreeProfile
	// Platform echoes the configured platform.
	Platform Platform
	// Tenants is the number of co-located searches the decision models
	// (1 for a single-engine Configure; G for ConfigureFleet, where
	// Choice.BatchSize is the aggregate service threshold).
	Tenants int
}

// String renders the decision for logs and reports.
func (d Decision) String() string {
	s := fmt.Sprintf("N=%d platform=%s scheme=%s", d.Choice.N, d.Platform, d.Choice.Scheme)
	if d.Tenants > 1 {
		s += fmt.Sprintf(" G=%d", d.Tenants)
	}
	if d.Platform == PlatformAccel && d.Choice.Scheme == perfmodel.SchemeLocal {
		s += fmt.Sprintf(" B=%d (%d probes)", d.Choice.BatchSize, d.Choice.Probes)
	}
	s += fmt.Sprintf(" [pred shared=%v local=%v per-iter]",
		d.Choice.PredictedShared, d.Choice.PredictedLocal)
	return s
}

// Engine is a fleet of one: the chosen mcts.Engine together with the
// resources it owns.
type Engine struct {
	mcts.Engine
	Decision Decision
	fleet    *Fleet
}

// Close releases the engine and its evaluator service.
func (e *Engine) Close() { e.fleet.Close() }

// Configure runs the design configuration workflow for g under opts and
// returns the predicted-fastest engine, ready for Search calls.
func Configure(g game.Game, opts Options) (*Engine, error) {
	f, err := ConfigureFleet(g, 1, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{Engine: f.Engines[0], Decision: f.Decision, fleet: f}, nil
}

// Fleet is G engines sharing one inference service: the output of the
// multi-tenant design configuration workflow. Engines[i] is tenant i's
// private search engine (each owns its own tree and RNG stream). Server is
// the shared evaluate.Server and Clients[i] tenant i's handle on it, when the
// decision built one (local schemes and shared+accel); both are nil when
// tenants share only a synchronous evaluator.
type Fleet struct {
	Engines  []mcts.Engine
	Decision Decision
	Server   *evaluate.Server
	Clients  []*evaluate.Client
}

// Close releases every tenant engine, then every tenant's client, and then
// drains the shared service.
func (f *Fleet) Close() {
	for _, e := range f.Engines {
		e.Close()
	}
	for _, c := range f.Clients {
		c.Close()
	}
	if f.Server != nil {
		f.Server.Close()
	}
}

// ConfigureFleet runs the design configuration workflow for G co-located
// searches (tenants) sharing one inference backend. Scheme selection models
// the AGGREGATE batch fill across tenants (Equations 4 and 6 evaluated at
// G = tenants), so the chosen service batch threshold may exceed one
// tenant's in-flight bound — the whole point of multiplexing. Each returned
// engine carries a distinct noise seed derived from Options.Search.Seed.
func ConfigureFleet(g game.Game, tenants int, opts Options) (*Fleet, error) {
	if tenants < 1 {
		return nil, fmt.Errorf("adaptive: tenants must be >= 1, got %d", tenants)
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("adaptive: Workers must be >= 1, got %d", opts.Workers)
	}
	if opts.Platform == PlatformCPU && opts.Evaluator == nil {
		return nil, fmt.Errorf("adaptive: PlatformCPU requires an Evaluator")
	}
	if opts.Platform != PlatformCPU && opts.Link == nil {
		return nil, fmt.Errorf("adaptive: PlatformAccel requires a Link")
	}
	return buildFleet(tenants, opts, decide(g, tenants, opts)), nil
}

// buildFleet instantiates G engines over one shared inference backend — the
// only place a Decision becomes engines.
func buildFleet(tenants int, opts Options, dec Decision) *Fleet {
	n := opts.Workers
	// Each tenant gets its own root-noise stream; identical seeds would make
	// co-tenant games collapse onto one trajectory. Tenant 0 keeps the
	// caller's seed, so a fleet of one searches exactly as configured.
	cfgs := make([]mcts.Config, tenants)
	for i := range cfgs {
		cfgs[i] = opts.Search
		cfgs[i].Seed += uint64(i) * 0x9E3779B97F4A7C15
	}

	if dec.Choice.Scheme == perfmodel.SchemeShared && opts.Platform == PlatformCPU {
		// Tenants share the (thread-safe) evaluator directly; there is no
		// batch to aggregate on a CPU.
		fleet := &Fleet{Engines: make([]mcts.Engine, tenants), Decision: dec}
		for i, cfg := range cfgs {
			fleet.Engines[i] = mcts.NewShared(cfg, n, opts.Evaluator)
		}
		return fleet
	}

	// Every other configuration serves its tenants through one Server. On a
	// CPU it is a worker pool: batch size 1, concurrency bounded to the
	// physical worker budget. On an accelerator it runs the Link at the
	// service threshold the decision chose, each batch on its own goroutine
	// (the "CUDA stream" of Section 3.3).
	var backend evaluate.Backend = &evaluate.EvaluatorBackend{Eval: opts.Evaluator, Workers: n}
	sc := evaluate.ServerConfig{Batch: 1, LaunchWorkers: n}
	if opts.Platform != PlatformCPU {
		backend, sc = opts.Link, evaluate.ServerConfig{Batch: dec.Choice.BatchSize}
	}
	var fleet *Fleet
	if dec.Choice.Scheme == perfmodel.SchemeLocal {
		fleet = localFleet(backend, sc, n, cfgs)
	} else {
		// One service aggregates all G*N workers' synchronous requests into
		// full-fill batches (Section 3.3). Every worker is a registered slot
		// of its sync tenant, so a tail that can no longer fill the threshold
		// launches by quorum, not by hand.
		srv := evaluate.NewServer(backend, sc)
		fleet = &Fleet{Server: srv, Engines: make([]mcts.Engine, tenants), Clients: make([]*evaluate.Client, tenants)}
		for i, cfg := range cfgs {
			fleet.Clients[i] = srv.NewSyncClient()
			fleet.Engines[i] = mcts.NewShared(cfg, n, fleet.Clients[i])
		}
	}
	fleet.Decision = dec
	return fleet
}

// NewLocalFleet stands up the training drivers' fleet: one worker-pool Server
// over backend (batch size 1 on workers persistent inference threads) and one
// mcts.NewLocal master per entry of cfgs, each on its own Client with up to
// workers evaluations in flight. The caller chooses each tenant's Config (and
// so its noise seed), calls Server.SwapBackend on promotion where no game is
// in flight, and Close at the end.
func NewLocalFleet(backend evaluate.Backend, workers int, cfgs []mcts.Config) *Fleet {
	return localFleet(backend, evaluate.ServerConfig{Batch: 1, LaunchWorkers: workers}, workers, cfgs)
}

// localFleet is len(cfgs) local-tree masters on one Server built from sc,
// which says how batches form and run; how much may be outstanding follows
// from the fleet's size. Every master registers its rollout contexts, so a
// partial batch launches by quorum.
func localFleet(backend evaluate.Backend, sc evaluate.ServerConfig, workers int, cfgs []mcts.Config) *Fleet {
	sc.MaxOutstanding = 2 * len(cfgs) * workers
	srv := evaluate.NewServer(backend, sc)
	fleet := &Fleet{Server: srv, Engines: make([]mcts.Engine, len(cfgs)), Clients: make([]*evaluate.Client, len(cfgs))}
	for i, cfg := range cfgs {
		fleet.Clients[i] = srv.NewSyncClient()
		fleet.Engines[i] = mcts.NewLocal(cfg, fleet.Clients[i], workers)
	}
	return fleet
}

// decide profiles the host and applies the performance models for tenants
// co-located searches: Equations 3/5 on a CPU (they are per-search:
// co-located CPU tenants scale the worker pool, not the batch shape),
// Equations 4/6 at aggregate fill and Algorithm 4 over [1, G*N] on an
// accelerator. A forced scheme is that same configuration with the scheme —
// and with it the service threshold — overridden.
func decide(g game.Game, tenants int, opts Options) Decision {
	profPlayouts := opts.ProfilePlayouts
	if profPlayouts <= 0 {
		profPlayouts = 400
	}
	dnnIters := opts.DNNProfileIters
	if dnnIters <= 0 {
		dnnIters = 30
	}

	inTree := perfmodel.ProfileInTree(perfmodel.SyntheticSpec{
		Fanout:     g.NumActions(),
		DepthLimit: g.MaxGameLength(),
		Playouts:   profPlayouts,
		Seed:       1,
	})
	params := perfmodel.Params{
		TSelect:       inTree.TSelect,
		TBackup:       inTree.TBackup,
		TSharedAccess: perfmodel.DefaultSharedAccess,
	}
	n := opts.Workers
	var choice perfmodel.Choice
	if opts.Platform == PlatformCPU {
		c, h, w := g.EncodedShape()
		params.TDNNCPU = perfmodel.ProfileDNN(opts.Evaluator, c*h*w, g.NumActions(), dnnIters)
		choice = perfmodel.ConfigureCPU(params, n)
	} else {
		cost := opts.Link.Cost
		params.GPU = &cost
		// Options.TestRun measures a SINGLE search and cannot exercise
		// service thresholds beyond one tenant's in-flight bound N.
		testRun := opts.TestRun
		if tenants > 1 {
			testRun = nil
		}
		choice = perfmodel.ConfigureGPU(params, n, tenants, testRun)
	}
	if f := opts.ForceScheme; f != nil {
		choice.Scheme = *f
		if opts.Platform == PlatformAccel {
			choice.BatchSize = choice.LocalBatch
			if *f == perfmodel.SchemeShared {
				// The service aggregates all tenants' synchronous workers:
				// full fill is G*N, not one tenant's N.
				choice.BatchSize = tenants * n
			}
		}
	}
	return Decision{Choice: choice, Params: params, InTree: inTree, Platform: opts.Platform, Tenants: tenants}
}
