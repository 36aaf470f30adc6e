package adaptive

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/connect4"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/perfmodel"
)

// modelLink is the "model" accelerator backend: Synthetic behind cost.
func modelLink(t testing.TB, cost accel.CostModel) *accel.Link {
	t.Helper()
	link, err := accel.NewBackend("model", accel.BackendSpec{Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	return link
}

func searchCfg(playouts int) mcts.Config {
	cfg := mcts.DefaultConfig()
	cfg.Playouts = playouts
	return cfg
}

func TestConfigureValidation(t *testing.T) {
	g := tictactoe.New()
	if _, err := Configure(g, Options{Workers: 0, Evaluator: &evaluate.Random{}}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := Configure(g, Options{Workers: 2, Platform: PlatformCPU}); err == nil {
		t.Error("missing evaluator accepted")
	}
	if _, err := Configure(g, Options{Workers: 2, Platform: PlatformAccel}); err == nil {
		t.Error("missing link accepted")
	}
}

func TestConfigureCPUSlowDNNPicksLocal(t *testing.T) {
	// A slow DNN with trivial in-tree costs is the local scheme's home
	// turf: evaluations dominate and want the full thread pool.
	g := connect4.New()
	eng, err := Configure(g, Options{
		Search:          searchCfg(64),
		Workers:         4,
		Platform:        PlatformCPU,
		Evaluator:       &evaluate.Random{Latency: 500 * time.Microsecond},
		ProfilePlayouts: 200,
		DNNProfileIters: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Decision.Choice.Scheme != perfmodel.SchemeLocal {
		t.Fatalf("scheme = %v, want local; decision: %s",
			eng.Decision.Choice.Scheme, eng.Decision)
	}
	st := g.NewInitial()
	dist := make([]float32, st.NumActions())
	stats := eng.Search(st, dist)
	if stats.Playouts != 64 {
		t.Fatalf("playouts = %d", stats.Playouts)
	}
}

func TestConfigureCPUFastDNNManyWorkersPicksShared(t *testing.T) {
	// A free DNN with a huge worker count makes the master thread's serial
	// in-tree operations the bottleneck: Equation 5 explodes while
	// Equation 3 stays near T_DNN, so shared must win.
	g := connect4.New()
	eng, err := Configure(g, Options{
		Search:          searchCfg(64),
		Workers:         4096,
		Platform:        PlatformCPU,
		Evaluator:       &evaluate.Random{}, // ~free evaluation
		ProfilePlayouts: 200,
		DNNProfileIters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Decision.Choice.Scheme != perfmodel.SchemeShared {
		t.Fatalf("scheme = %v, want shared; decision: %s",
			eng.Decision.Choice.Scheme, eng.Decision)
	}
}

func TestConfigureAccelBuildsRunnableEngine(t *testing.T) {
	g := tictactoe.New()
	cost := accel.DefaultCostModel()
	cost.LaunchLatency = 0
	cost.ComputeBase = 0
	cost.ComputePerSample = 0
	eng, err := Configure(g, Options{
		Search:          searchCfg(100),
		Workers:         4,
		Platform:        PlatformAccel,
		Link:            modelLink(t, cost),
		ProfilePlayouts: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := g.NewInitial()
	dist := make([]float32, st.NumActions())
	stats := eng.Search(st, dist)
	if stats.Playouts != 100 {
		t.Fatalf("playouts = %d", stats.Playouts)
	}
	var sum float32
	for _, p := range dist {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("dist sums to %v", sum)
	}
}

func TestConfigureAccelUsesTestRuns(t *testing.T) {
	g := tictactoe.New()
	cost := accel.DefaultCostModel()
	probed := map[int]bool{}
	eng, err := Configure(g, Options{
		Search:          searchCfg(50),
		Workers:         32,
		Platform:        PlatformAccel,
		Link:            modelLink(t, cost),
		ProfilePlayouts: 100,
		TestRun: func(b int) time.Duration {
			probed[b] = true
			d := b - 10
			if d < 0 {
				d = -d
			}
			return time.Duration(d+1) * time.Microsecond // deep V, min at 10
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.Decision.Choice.BatchSize; got != 10 {
		t.Fatalf("batch size = %d, want 10", got)
	}
	if len(probed) > 14 {
		t.Fatalf("probed %d batch sizes, want O(log N)", len(probed))
	}
	if eng.Decision.Choice.Scheme != perfmodel.SchemeLocal {
		t.Fatalf("scheme = %v", eng.Decision.Choice.Scheme)
	}
}

func TestForceScheme(t *testing.T) {
	g := tictactoe.New()
	for _, scheme := range []perfmodel.Scheme{perfmodel.SchemeShared, perfmodel.SchemeLocal} {
		s := scheme
		eng, err := Configure(g, Options{
			Search:          searchCfg(60),
			Workers:         2,
			Platform:        PlatformCPU,
			Evaluator:       &evaluate.Random{},
			ProfilePlayouts: 50,
			DNNProfileIters: 3,
			ForceScheme:     &s,
		})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Decision.Choice.Scheme != s {
			t.Fatalf("forced %v but got %v", s, eng.Decision.Choice.Scheme)
		}
		if want := map[perfmodel.Scheme]string{
			perfmodel.SchemeShared: "shared", perfmodel.SchemeLocal: "local",
		}[s]; eng.Name() != want {
			t.Fatalf("engine %q for scheme %v", eng.Name(), s)
		}
		st := g.NewInitial()
		dist := make([]float32, st.NumActions())
		eng.Search(st, dist)
		eng.Close()
	}
}

// TestForcedSchemeIsOrdinaryConfigurationOverridden: forcing a scheme changes
// which engine is built and the service threshold that goes with it, nothing
// else — both predictions and the Algorithm 4 search are the unforced
// decision's, even when the forced scheme is the one the models rejected.
func TestForcedSchemeIsOrdinaryConfigurationOverridden(t *testing.T) {
	g := tictactoe.New()
	cost := accel.DefaultCostModel()
	opts := Options{
		Search: searchCfg(20), Workers: 16, Platform: PlatformAccel,
		Link: modelLink(t, cost), ProfilePlayouts: 50,
		// A V with its minimum at B = 5, everywhere slower than Equation 4.
		TestRun: func(b int) time.Duration { return time.Second + time.Duration((b-5)*(b-5)) },
	}
	auto := decide(g, 1, opts).Choice
	if auto.Scheme != perfmodel.SchemeShared || auto.BatchSize != 16 || auto.LocalBatch != 5 {
		t.Fatalf("unforced decision %+v, want shared at B=16 with B*=5", auto)
	}
	for scheme, batch := range map[perfmodel.Scheme]int{perfmodel.SchemeShared: 16, perfmodel.SchemeLocal: 5} {
		opts.ForceScheme = &scheme
		want := auto
		want.Scheme, want.BatchSize = scheme, batch
		// T_select and T_backup are re-profiled per decision; Equation 4 moves with them.
		got := decide(g, 1, opts).Choice
		got.PredictedShared = want.PredictedShared
		if got != want {
			t.Errorf("forced %v: decision %+v, want %+v", scheme, got, want)
		}
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{
		Choice: perfmodel.Choice{
			N: 32, Scheme: perfmodel.SchemeLocal, BatchSize: 8, Probes: 9,
			PredictedShared: 320 * time.Microsecond,
			PredictedLocal:  160 * time.Microsecond,
		},
		Platform: PlatformAccel,
	}
	s := d.String()
	for _, want := range []string{"N=32", "local", "B=8", "9 probes"} {
		if !strings.Contains(s, want) {
			t.Errorf("decision string missing %q: %s", want, s)
		}
	}
}

func TestPlatformString(t *testing.T) {
	if PlatformCPU.String() != "cpu" || PlatformAccel.String() != "cpu-accel" {
		t.Fatal("platform names wrong")
	}
}

func TestConfigureFleetAccelSharesOneServer(t *testing.T) {
	g := tictactoe.New()
	cost := accel.DefaultCostModel()
	cost.ComputePerSample = 0
	s := perfmodel.SchemeLocal
	fleet, err := ConfigureFleet(g, 4, Options{
		Search:          searchCfg(40),
		Workers:         4,
		Platform:        PlatformAccel,
		Link:            modelLink(t, cost),
		ProfilePlayouts: 50,
		ForceScheme:     &s,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if len(fleet.Engines) != 4 {
		t.Fatalf("fleet has %d engines, want 4", len(fleet.Engines))
	}
	if fleet.Server == nil {
		t.Fatal("accel fleet must expose its shared server")
	}
	if fleet.Decision.Tenants != 4 {
		t.Fatalf("decision tenants = %d", fleet.Decision.Tenants)
	}
	// Run all four searches concurrently through the one service.
	st := g.NewInitial()
	done := make(chan mcts.Stats, 4)
	for _, e := range fleet.Engines {
		go func(e mcts.Engine) {
			dist := make([]float32, st.NumActions())
			done <- e.Search(st, dist)
		}(e)
	}
	var agg mcts.Stats
	for i := 0; i < 4; i++ {
		agg.Add(<-done)
	}
	if agg.Playouts != 4*40 {
		t.Fatalf("aggregate playouts %d, want 160", agg.Playouts)
	}
	if srvStats := fleet.Server.Stats(); srvStats.Requests == 0 {
		t.Fatal("no request reached the shared server")
	}
}

func TestConfigureFleetForcedSharedWidensThreshold(t *testing.T) {
	// A forced shared scheme on the accelerator must still aggregate: the
	// service threshold is G*N (all tenants' workers), not one tenant's N —
	// otherwise the fleet reverts to exactly the under-filled batches the
	// service exists to eliminate.
	g := tictactoe.New()
	cost := accel.DefaultCostModel()
	s := perfmodel.SchemeShared
	fleet, err := ConfigureFleet(g, 4, Options{
		Search:          searchCfg(20),
		Workers:         3,
		Platform:        PlatformAccel,
		Link:            modelLink(t, cost),
		ProfilePlayouts: 50,
		ForceScheme:     &s,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if got := fleet.Decision.Choice.BatchSize; got != 4*3 {
		t.Fatalf("forced-shared fleet threshold = %d, want G*N = 12", got)
	}
	if fleet.Server == nil || fleet.Server.Batch() != 12 {
		t.Fatal("shared server not built at aggregate fill")
	}
}

func TestConfigureFleetCPUSharedEvaluator(t *testing.T) {
	g := tictactoe.New()
	fleet, err := ConfigureFleet(g, 3, Options{
		Search:          searchCfg(30),
		Workers:         2,
		Platform:        PlatformCPU,
		Evaluator:       &evaluate.Random{},
		ProfilePlayouts: 50,
		DNNProfileIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if len(fleet.Engines) != 3 {
		t.Fatalf("fleet has %d engines", len(fleet.Engines))
	}
	st := g.NewInitial()
	for _, e := range fleet.Engines {
		dist := make([]float32, st.NumActions())
		if stats := e.Search(st, dist); stats.Playouts != 30 {
			t.Fatalf("playouts = %d", stats.Playouts)
		}
	}
}

func TestConfigureFleetValidation(t *testing.T) {
	g := tictactoe.New()
	if _, err := ConfigureFleet(g, 0, Options{Workers: 2, Evaluator: &evaluate.Random{}}); err == nil {
		t.Error("zero tenants accepted")
	}
	if _, err := ConfigureFleet(g, 2, Options{Workers: 0, Evaluator: &evaluate.Random{}}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := ConfigureFleet(g, 2, Options{Workers: 2, Platform: PlatformAccel}); err == nil {
		t.Error("missing link accepted")
	}
}

func TestFleetTenantsGetDistinctSeeds(t *testing.T) {
	g := tictactoe.New()
	s := perfmodel.SchemeShared
	cfg := searchCfg(60)
	// With Dirichlet noise on, identical seeds would give tenants identical
	// root distributions; the fleet must decorrelate them.
	cfg.DirichletAlpha = 0.5
	cfg.NoiseFrac = 0.4
	cfg.Seed = 9
	fleet, err := ConfigureFleet(g, 2, Options{
		Search:          cfg,
		Workers:         1,
		Platform:        PlatformCPU,
		Evaluator:       &evaluate.Random{},
		ProfilePlayouts: 50,
		DNNProfileIters: 3,
		ForceScheme:     &s,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if fleet.Decision.Tenants != 2 {
		t.Fatalf("tenants = %d", fleet.Decision.Tenants)
	}
	st := g.NewInitial()
	d0 := make([]float32, st.NumActions())
	d1 := make([]float32, st.NumActions())
	fleet.Engines[0].Search(st, d0)
	fleet.Engines[1].Search(st, d1)
	same := true
	for i := range d0 {
		if d0[i] != d1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("tenants share a noise seed: identical root distributions")
	}
}

// NewLocalFleet is the training drivers' topology: G local-tree masters on
// one worker-pool server. Every evaluation a master counts went through that
// server, and Close — engines, then clients, then the server — leaves
// nothing of it running.
func TestNewLocalFleetSharesOneServerAndCloses(t *testing.T) {
	g := connect4.New()
	before := runtime.NumGoroutine()
	cfgs := make([]mcts.Config, 3)
	for i := range cfgs {
		cfgs[i] = searchCfg(50)
		cfgs[i].Seed = uint64(i) * 7919
	}
	fleet := NewLocalFleet(&evaluate.EvaluatorBackend{Eval: &evaluate.Random{}, Workers: 2}, 2, cfgs)
	if len(fleet.Engines) != 3 || len(fleet.Clients) != 3 {
		t.Fatalf("fleet of %d engines, %d clients; want 3, 3", len(fleet.Engines), len(fleet.Clients))
	}
	st := g.NewInitial()
	done := make(chan mcts.Stats, len(fleet.Engines))
	for _, e := range fleet.Engines {
		go func(e mcts.Engine) {
			done <- e.Search(st, make([]float32, st.NumActions()))
		}(e)
	}
	var agg mcts.Stats
	for range fleet.Engines {
		agg.Add(<-done)
	}
	if agg.Playouts != 3*50 {
		t.Fatalf("aggregate playouts %d, want 150", agg.Playouts)
	}
	if got := fleet.Server.Stats().Requests; got != int64(agg.Evaluations) || got == 0 {
		t.Fatalf("server served %d requests, masters counted %d evaluations", got, agg.Evaluations)
	}
	fleet.Close()
	// The launcher goroutines exit inside Server.Close; the search goroutines
	// above have sent their result and are on their way out.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines still running after Close, %d before the fleet", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
