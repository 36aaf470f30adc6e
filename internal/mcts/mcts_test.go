package mcts

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/connect4"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/rng"
)

func testCfg(playouts int) Config {
	cfg := DefaultConfig()
	cfg.Playouts = playouts
	return cfg
}

// winInOnePosition returns a tic-tac-toe state where the mover (X) wins
// immediately by playing action 2.
func winInOnePosition() game.State {
	s := tictactoe.New().NewInitial()
	for _, mv := range []int{0, 3, 1, 4} {
		s.Play(mv)
	}
	return s
}

// blockPosition returns a state where O must play 2 to block X's win.
func blockPosition() game.State {
	s := tictactoe.New().NewInitial()
	for _, mv := range []int{0, 4, 1} {
		s.Play(mv)
	}
	return s
}

func argmax32(xs []float32) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

func checkDistribution(t *testing.T, st game.State, dist []float32) {
	t.Helper()
	legal := make(map[int]bool)
	for _, mv := range st.LegalMoves(nil) {
		legal[mv] = true
	}
	var sum float64
	for a, p := range dist {
		if p < 0 {
			t.Fatalf("negative probability at %d", a)
		}
		if p > 0 && !legal[a] {
			t.Fatalf("probability mass on illegal action %d", a)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("distribution sums to %v", sum)
	}
}

func runEngine(t *testing.T, e Engine, st game.State) ([]float32, Stats) {
	t.Helper()
	dist := make([]float32, st.NumActions())
	stats := e.Search(st, dist)
	checkDistribution(t, st, dist)
	if root := st; !root.Terminal() && stats.Playouts == 0 {
		t.Fatal("no playouts recorded")
	}
	return dist, stats
}

func TestSerialFindsImmediateWin(t *testing.T) {
	e := NewSerial(testCfg(400), &evaluate.Random{})
	dist, stats := runEngine(t, e, winInOnePosition())
	if got := argmax32(dist); got != 2 {
		t.Fatalf("best move = %d, want 2 (win); dist=%v", got, dist)
	}
	if stats.TerminalHits == 0 {
		t.Error("winning line should produce terminal hits")
	}
	if e.Tree().OutstandingVirtualLoss() != 0 {
		t.Error("serial search left virtual loss")
	}
}

func TestSerialBlocksOpponentWin(t *testing.T) {
	e := NewSerial(testCfg(1200), &evaluate.Random{})
	dist, _ := runEngine(t, e, blockPosition())
	if got := argmax32(dist); got != 2 {
		t.Fatalf("best move = %d, want 2 (block); dist=%v", got, dist)
	}
}

func TestSerialRootVisitsEqualPlayouts(t *testing.T) {
	e := NewSerial(testCfg(300), &evaluate.Random{})
	st := connect4.New().NewInitial()
	runEngine(t, e, st)
	if got := e.Tree().Node(e.Tree().Root()).Visits(); got != 300 {
		t.Fatalf("root visits = %d, want 300", got)
	}
}

func TestSerialSearchIsReusable(t *testing.T) {
	e := NewSerial(testCfg(100), &evaluate.Random{})
	st := connect4.New().NewInitial()
	d1, _ := runEngine(t, e, st)
	d2, _ := runEngine(t, e, st)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("same seedless search on same state diverged across reuse")
		}
	}
}

func TestSharedEngineCorrectness(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		e := NewShared(testCfg(400), workers, &evaluate.Random{})
		dist, _ := runEngine(t, e, winInOnePosition())
		if got := argmax32(dist); got != 2 {
			t.Errorf("workers=%d: best move = %d, want 2", workers, got)
		}
		tr := e.Tree()
		if got := tr.Node(tr.Root()).Visits(); got != 400 {
			t.Errorf("workers=%d: root visits = %d, want 400", workers, got)
		}
		if vl := tr.OutstandingVirtualLoss(); vl != 0 {
			t.Errorf("workers=%d: outstanding VL = %d", workers, vl)
		}
	}
}

func TestSharedWithSyncClientEvaluator(t *testing.T) {
	// Shared-tree + accelerator queue with threshold == workers (the
	// paper's shared+GPU configuration) and NO flush deadline. 37 % 4 != 0:
	// the final batch cannot fill. Nothing flushes it by hand — the engine
	// registers its workers with the client, each leaves when the tickets run
	// out, and the stragglers' partial batch launches by quorum.
	cost := accel.DefaultCostModel()
	cost.LaunchLatency = 0
	cost.ComputeBase = 0
	cost.ComputePerSample = 0
	link, err := accel.NewBackend("model", accel.BackendSpec{Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	workers := 4
	srv := evaluate.NewServer(link, evaluate.ServerConfig{Batch: workers})
	cl := srv.NewSyncClient()
	e := NewShared(testCfg(37), workers, cl)
	st := connect4.New().NewInitial()
	runEngine(t, e, st)
	tr := e.Tree()
	if got := tr.Node(tr.Root()).Visits(); got != 37 {
		t.Fatalf("root visits = %d, want 37", got)
	}
	cl.Close()
	srv.Close()
	if s := srv.Stats(); s.DeadlineFlushes != 0 || s.QuorumFlushes == 0 {
		t.Fatalf("tail launched by %d deadline and %d quorum flushes, want 0 and > 0", s.DeadlineFlushes, s.QuorumFlushes)
	}
}

func TestLocalEngineWithPool(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		pool := evaluate.NewPool(&evaluate.Random{}, workers)
		e := NewLocal(testCfg(400), pool, workers)
		dist, _ := runEngine(t, e, winInOnePosition())
		if got := argmax32(dist); got != 2 {
			t.Errorf("workers=%d: best move = %d, want 2", workers, got)
		}
		tr := e.Tree()
		if got := tr.Node(tr.Root()).Visits(); got != 400 {
			t.Errorf("workers=%d: root visits = %d, want 400", workers, got)
		}
		if vl := tr.OutstandingVirtualLoss(); vl != 0 {
			t.Errorf("workers=%d: outstanding VL = %d", workers, vl)
		}
		pool.Close()
	}
}

func TestLocalEngineWithBatchedAsync(t *testing.T) {
	cost := accel.DefaultCostModel()
	cost.LaunchLatency = 0
	cost.ComputeBase = 0
	cost.ComputePerSample = 0
	for _, batch := range []int{1, 3, 8} {
		link, err := accel.NewBackend("model", accel.BackendSpec{Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		srv := evaluate.NewServer(link, evaluate.ServerConfig{Batch: batch, MaxOutstanding: 32})
		async := srv.NewSyncClient()
		e := NewLocal(testCfg(301), async, 16)
		st := connect4.New().NewInitial()
		runEngine(t, e, st)
		tr := e.Tree()
		if got := tr.Node(tr.Root()).Visits(); got != 301 {
			t.Errorf("batch=%d: root visits = %d, want 301", batch, got)
		}
		async.Close()
		srv.Close()
	}
}

func TestLocalHonoursMaxInFlight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("maxInFlight=0 did not panic")
		}
	}()
	NewLocal(testCfg(10), nil, 0)
}

func TestRootParallelCorrectness(t *testing.T) {
	e := NewRootParallel(testCfg(400), 4, &evaluate.Random{})
	dist, stats := runEngine(t, e, winInOnePosition())
	if got := argmax32(dist); got != 2 {
		t.Fatalf("best move = %d, want 2", got)
	}
	if stats.Playouts != 400 {
		t.Fatalf("playouts = %d", stats.Playouts)
	}
}

func TestLeafParallelCorrectness(t *testing.T) {
	pool := evaluate.NewPool(&evaluate.Random{}, 4)
	defer pool.Close()
	e := NewLeafParallel(testCfg(300), 4, pool)
	dist, _ := runEngine(t, e, winInOnePosition())
	if got := argmax32(dist); got != 2 {
		t.Fatalf("best move = %d, want 2", got)
	}
}

func TestEnginesAgreeOnTactics(t *testing.T) {
	// Every scheme must find the forced win; this is the algorithm-quality
	// analogue of Section 5.5 (parallelism alters trajectories but not the
	// ability to see one-ply tactics).
	st := winInOnePosition()
	pool := evaluate.NewPool(&evaluate.Random{}, 4)
	defer pool.Close()
	engines := []Engine{
		NewSerial(testCfg(400), &evaluate.Random{}),
		NewShared(testCfg(400), 4, &evaluate.Random{}),
		NewLocal(testCfg(400), pool, 4),
		NewRootParallel(testCfg(400), 4, &evaluate.Random{}),
	}
	for _, e := range engines {
		dist := make([]float32, st.NumActions())
		e.Search(st, dist)
		if got := argmax32(dist); got != 2 {
			t.Errorf("%s: best move = %d, want 2", e.Name(), got)
		}
		e.Close()
	}
}

func TestProfilePhaseTimes(t *testing.T) {
	cfg := testCfg(200)
	cfg.Profile = true
	e := NewSerial(cfg, &evaluate.Random{Latency: 20_000}) // 20us eval
	st := connect4.New().NewInitial()
	_, stats := runEngine(t, e, st)
	if stats.SelectTime <= 0 || stats.BackupTime <= 0 || stats.EvalTime <= 0 {
		t.Fatalf("phase times missing: %+v", stats)
	}
	if stats.EvalTime < stats.SelectTime {
		t.Errorf("eval (%v) should dominate select (%v) with a 20us DNN",
			stats.EvalTime, stats.SelectTime)
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	s := Stats{Playouts: 100, Duration: 200 * 1000, SumDepth: 250}
	if s.PerIteration() != 2000 {
		t.Fatalf("PerIteration = %v", s.PerIteration())
	}
	if s.AvgDepth() != 2.5 {
		t.Fatalf("AvgDepth = %v", s.AvgDepth())
	}
	var empty Stats
	if empty.PerIteration() != 0 || empty.AvgDepth() != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestStatsAddSumsEveryField(t *testing.T) {
	a := Stats{
		Playouts: 10, Duration: 100, Expansions: 8, TerminalHits: 2,
		SumDepth: 30, Evaluations: 9, WastedEvals: 1, ReusedNodes: 40, ReusedVisits: 20,
		SelectTime: 5, ExpandTime: 6, BackupTime: 7, EvalTime: 8,
	}
	b := Stats{
		Playouts: 1, Duration: 10, Expansions: 1, TerminalHits: 1,
		SumDepth: 3, Evaluations: 2, WastedEvals: 1, ReusedNodes: 4, ReusedVisits: 2,
		SelectTime: 1, ExpandTime: 2, BackupTime: 3, EvalTime: 4,
	}
	a.Add(b)
	want := Stats{
		Playouts: 11, Duration: 110, Expansions: 9, TerminalHits: 3,
		SumDepth: 33, Evaluations: 11, WastedEvals: 2, ReusedNodes: 44, ReusedVisits: 22,
		SelectTime: 6, ExpandTime: 8, BackupTime: 10, EvalTime: 12,
	}
	if a != want {
		t.Fatalf("Add merged to %+v, want %+v — a field was silently dropped", a, want)
	}
}

// TestStatsAddPreservesPhaseTimings pins the fix for the silent drop: the
// shared engine's shard merge must carry phase timings through Add even
// when the aggregate is assembled outside a profiling branch.
func TestStatsAddPreservesPhaseTimings(t *testing.T) {
	shards := []Stats{
		{SelectTime: 10, BackupTime: 5, Expansions: 3},
		{SelectTime: 20, BackupTime: 15, EvalTime: 9, Expansions: 4},
	}
	var merged Stats
	for _, s := range shards {
		merged.Add(s)
	}
	if merged.SelectTime != 30 || merged.BackupTime != 20 || merged.EvalTime != 9 {
		t.Fatalf("phase timings dropped in merge: %+v", merged)
	}
	if merged.Expansions != 7 {
		t.Fatalf("expansions = %d, want 7", merged.Expansions)
	}
}

func TestDirichletNoiseChangesRootPriors(t *testing.T) {
	cfg := testCfg(50)
	cfg.DirichletAlpha = 0.3
	cfg.NoiseFrac = 0.25
	cfg.Seed = 7
	e1 := NewSerial(cfg, &evaluate.Random{})
	cfg.Seed = 8
	e2 := NewSerial(cfg, &evaluate.Random{})
	st := connect4.New().NewInitial()
	d1 := make([]float32, st.NumActions())
	d2 := make([]float32, st.NumActions())
	e1.Search(st, d1)
	e2.Search(st, d2)
	same := true
	for i := range d1 {
		if d1[i] != d2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different noise seeds produced identical searches")
	}
}

func TestMaskedPriors(t *testing.T) {
	policy := []float32{0.5, 0.1, 0.2, 0.2}
	out := make([]float32, 2)
	maskedPriors(policy, []int{1, 3}, out)
	if math.Abs(float64(out[0]-1.0/3)) > 1e-6 || math.Abs(float64(out[1]-2.0/3)) > 1e-6 {
		t.Fatalf("masked priors = %v", out)
	}
	// zero-mass fallback
	maskedPriors([]float32{0, 0, 0, 0}, []int{0, 2}, out)
	if out[0] != 0.5 || out[1] != 0.5 {
		t.Fatalf("fallback priors = %v", out)
	}
}

func TestSerialDistributionProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		st := connect4.New().NewInitial()
		for i := 0; i < r.Intn(10); i++ {
			moves := st.LegalMoves(nil)
			if len(moves) == 0 || st.Terminal() {
				break
			}
			st.Play(moves[r.Intn(len(moves))])
		}
		if st.Terminal() {
			return true
		}
		e := NewSerial(testCfg(60), &evaluate.Random{})
		dist := make([]float32, st.NumActions())
		e.Search(st, dist)
		legal := make(map[int]bool)
		for _, mv := range st.LegalMoves(nil) {
			legal[mv] = true
		}
		var sum float64
		for a, p := range dist {
			if p < 0 || (p > 0 && !legal[a]) {
				return false
			}
			sum += float64(p)
		}
		return math.Abs(sum-1) < 1e-4
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
