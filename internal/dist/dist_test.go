package dist

import (
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/arena"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	_ "github.com/parmcts/parmcts/internal/game/games" // hex and gomoku, for the foreign-store case
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/trajstore"
)

// testLearnerConfig builds a fast learner over tictactoe. The gate's
// WinThreshold 0 makes every gate promote (score >= 0 always), so
// promotion-path tests are deterministic regardless of match outcomes.
func testLearnerConfig(t *testing.T, ckptDir string, rounds int) LearnerConfig {
	t.Helper()
	g := tictactoe.New()
	c, h, w := g.EncodedShape()
	store, err := checkpoint.NewStore(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	return LearnerConfig{
		Game:     g,
		GameSpec: "tictactoe",
		Store:    store,
		NewNet: func() *nn.Network {
			return nn.MustNew(nn.TinyConfig(c, h, w, g.NumActions()), rng.New(1))
		},
		Replay:       train.NewReplay(4096),
		RoundGames:   4,
		RoundTimeout: 3 * time.Second,
		Loop: train.LoopConfig{
			Rounds:        rounds,
			GateEvery:     2,
			SGDIterations: 1,
			BatchSize:     8,
			MinSamples:    1,
			Seed:          1,
		},
		Gate: arena.GateConfig{
			Games:        2,
			WinThreshold: 0,
			Playouts:     8,
			Temperature:  0.5,
			TempMoves:    3,
			Seed:         7,
		},
		Logf: t.Logf,
	}
}

func testWorkerConfig(t *testing.T, id string, dial Dialer, seed uint64) WorkerConfig {
	t.Helper()
	return WorkerConfig{
		ID:           id,
		Game:         tictactoe.New(),
		GameSpec:     "tictactoe",
		Dial:         dial,
		Games:        2,
		Playouts:     8,
		Workers:      2,
		TempMoves:    3,
		Seed:         seed,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		Logf:         t.Logf,
	}
}

// TestDistributedLoopEndToEnd is the in-memory multi-worker smoke: two
// workers stream episodes to one learner, SGD and gating run on the
// learner, promotions fan back out, and workers apply the swaps at round
// barriers.
func TestDistributedLoopEndToEnd(t *testing.T) {
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	learner, err := NewLearner(lis, testLearnerConfig(t, t.TempDir(), 6))
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]*Worker, 2)
	workerDone := make(chan WorkerStats, len(workers))
	for i := range workers {
		w, werr := NewWorker(testWorkerConfig(t, "w"+string(rune('0'+i)), fabric.Dialer(), uint64(i+1)))
		if werr != nil {
			t.Fatal(werr)
		}
		workers[i] = w
		go func() { workerDone <- w.Run() }()
	}

	report := learner.Run(nil)
	for _, w := range workers {
		w.Stop()
	}
	var sent, swaps int
	for range workers {
		st := <-workerDone
		sent += st.Sent
		swaps += st.Swaps
	}

	if report.Rounds != 6 {
		t.Fatalf("learner consumed %d rounds, want 6", report.Rounds)
	}
	if len(report.Promotions) < 1 {
		t.Fatal("no promotion completed (gate threshold 0 promotes every gate)")
	}
	if report.FinalVersion != 1+int64(len(report.Promotions)) {
		t.Fatalf("final version %d with %d promotions from v1", report.FinalVersion, len(report.Promotions))
	}
	st := learner.Stats()
	if st.WorkersSeen < 2 {
		t.Fatalf("learner saw %d workers, want >= 2", st.WorkersSeen)
	}
	if st.Episodes < int64(report.Rounds) {
		t.Fatalf("learner accepted %d episodes over %d rounds", st.Episodes, report.Rounds)
	}
	if st.Rejected != 0 {
		t.Fatalf("%d frames rejected on a clean in-memory transport", st.Rejected)
	}
	if sent < int(st.Episodes) {
		t.Fatalf("workers sent %d episodes, learner accepted %d", sent, st.Episodes)
	}
	if swaps < 1 {
		t.Fatal("no worker applied a promoted checkpoint swap")
	}

	// The promoted versions are durable: the store's latest checkpoint is
	// the final version and loads cleanly.
	net, man, err := learner.cfg.Store.LoadLatest()
	if err != nil || net == nil {
		t.Fatalf("reloading final checkpoint: %v", err)
	}
	if man.Version != report.FinalVersion {
		t.Fatalf("store latest v%d, loop final v%d", man.Version, report.FinalVersion)
	}
}

// TestWorkerDeathDoesNotStallLearner kills one of two workers mid-run
// (abruptly — its connection just dies). The learner must keep consuming
// rounds from the survivor, complete a gated promotion, and finish.
func TestWorkerDeathDoesNotStallLearner(t *testing.T) {
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testLearnerConfig(t, t.TempDir(), 6)
	cfg.RoundTimeout = 500 * time.Millisecond
	learner, err := NewLearner(lis, cfg)
	if err != nil {
		t.Fatal(err)
	}

	victim, err := NewWorker(testWorkerConfig(t, "victim", fabric.Dialer(), 1))
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := NewWorker(testWorkerConfig(t, "survivor", fabric.Dialer(), 2))
	if err != nil {
		t.Fatal(err)
	}
	go victim.Run()
	survivorDone := make(chan WorkerStats, 1)
	go func() { survivorDone <- survivor.Run() }()

	// Kill the victim after the first consumed round.
	killed := make(chan struct{})
	report := learner.Run(func(s train.LoopRoundStats) {
		if s.Round == 0 {
			victim.Stop()
			close(killed)
		}
	})
	<-killed
	survivor.Stop()
	<-survivorDone

	if report.Rounds != 6 {
		t.Fatalf("learner consumed %d rounds, want 6 (stalled by dead worker?)", report.Rounds)
	}
	if len(report.Promotions) < 1 {
		t.Fatal("no gated promotion completed after worker death")
	}
}

// TestLearnerRestartResumes kills the learner (listener torn down, workers
// left running) and starts a fresh one over the same checkpoint and replay
// stores. The new learner must resume from the committed version, the
// workers must redial with backoff and re-hello, and training must
// continue with version numbering intact. The "train" case is cmd/train's
// default role run twice on the same directories instead: InProcess's one
// learner and one worker per process, each network behind a cache of its
// own.
func TestLearnerRestartResumes(t *testing.T) {
	for _, inProcess := range []bool{false, true} {
		name := "fleet"
		if inProcess {
			name = "train"
		}
		t.Run(name, func(t *testing.T) { testRestartResumes(t, inProcess) })
	}
}

func testRestartResumes(t *testing.T, inProcess bool) {
	fabric := NewNetwork()
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	trajDir := filepath.Join(t.TempDir(), "traj")

	openTraj := func() *trajstore.Store {
		ts, err := trajstore.Open(trajDir, trajstore.Config{SegmentGames: 4, Game: "tictactoe"})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	var workers []*Worker
	workerDone := make(chan WorkerStats, 2) // either case starts two workers
	run := func(w *Worker) {
		workers = append(workers, w)
		go func() { workerDone <- w.Run() }()
	}
	// phase starts a learner on the shared directories: on the shared fabric
	// for the fleet, or InProcess with the one worker that lives and dies
	// with it.
	phase := func(rounds, gateEvery int) (*Learner, LearnerConfig, *trajstore.Store) {
		cfg := testLearnerConfig(t, ckptDir, rounds)
		cfg.Loop.GateEvery = gateEvery
		cfg.Traj = openTraj()
		var learner *Learner
		var err error
		if inProcess {
			wcfg := testWorkerConfig(t, "local", nil, 1)
			wcfg.NewEvaluator = func(net *nn.Network) evaluate.Evaluator { return evaluate.NewCached(evaluate.NewNN(net), 1<<10) }
			var w *Worker
			if learner, w, err = InProcess(cfg, wcfg); err == nil {
				run(w)
			}
		} else {
			lis, lerr := fabric.Listen()
			if lerr != nil {
				t.Fatalf("binding the fabric: %v", lerr)
			}
			learner, err = NewLearner(lis, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return learner, cfg, cfg.Traj
	}

	// Phase 1: short run, at least one promotion.
	if !inProcess {
		for i := 0; i < 2; i++ {
			w, err := NewWorker(testWorkerConfig(t, "w"+string(rune('0'+i)), fabric.Dialer(), uint64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			run(w)
		}
	}
	learner1, _, traj1 := phase(4, 1)
	report1 := learner1.Run(nil)
	if len(report1.Promotions) < 1 {
		t.Fatal("phase 1 made no promotion")
	}
	traj1.Close()

	// The learner is gone; surviving workers keep playing and redial into
	// nothing. Phase 2: a fresh learner on the same fabric and stores.
	learner2, cfg2, traj2 := phase(3, 2)
	defer traj2.Close()
	if learner2.Version() != report1.FinalVersion {
		t.Fatalf("restarted learner serves v%d, phase 1 committed v%d", learner2.Version(), report1.FinalVersion)
	}
	if cfg2.Replay.Len() == 0 {
		t.Fatal("restarted learner re-ingested nothing from the durable replay store")
	}

	report2 := learner2.Run(nil)
	var reconnects int
	for _, w := range workers {
		w.Stop()
		reconnects += (<-workerDone).Reconnects
	}

	if report2.Rounds != 3 {
		t.Fatalf("restarted learner consumed %d rounds, want 3", report2.Rounds)
	}
	if report2.FinalVersion < report1.FinalVersion {
		t.Fatalf("version went backwards across restart: %d -> %d", report1.FinalVersion, report2.FinalVersion)
	}
	if !inProcess && reconnects < 2 {
		t.Fatalf("workers reconnected %d times, want >= 2 (one per worker)", reconnects)
	}
}

// TestLearnerRefusesForeignStore: a checkpoint store seeded for another game
// is refused at construction even when the two games share a network shape
// (hex:9 and gomoku:9 are both 4x9x9/81); before the guard the learner
// trained the wrong network.
func TestLearnerRefusesForeignStore(t *testing.T) {
	dir := t.TempDir()
	open := func(spec string) (*Learner, error) {
		g, err := game.NewFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		lis, err := NewNetwork().Listen()
		if err != nil {
			t.Fatal(err)
		}
		cfg := testLearnerConfig(t, dir, 1)
		cfg.Game, cfg.GameSpec = g, spec
		cfg.NewNet = func() *nn.Network {
			c, h, w := g.EncodedShape()
			return nn.MustNew(nn.TinyConfig(c, h, w, g.NumActions()), rng.New(1))
		}
		return NewLearner(lis, cfg)
	}
	if _, err := open("hex:9"); err != nil {
		t.Fatalf("seeding the store for hex:9: %v", err)
	}
	_, err := open("gomoku:9")
	if err == nil || !strings.Contains(err.Error(), "hex:9") || !strings.Contains(err.Error(), "gomoku:9") {
		t.Fatalf("opening hex:9's store for gomoku:9: %v, want a refusal naming both games", err)
	}
	if _, err := open("hex:9"); err != nil {
		t.Fatalf("reopening the store for its own game: %v", err)
	}
}

// rootWatch is one network's evaluator in TestWorkerSwapResetsTable: it runs
// first before its first evaluation and notes whether it was ever asked for
// the empty board.
type rootWatch struct {
	evaluate.Evaluator
	root     []float32
	first    func()
	once     sync.Once
	rootSeen atomic.Bool
}

func (e *rootWatch) Evaluate(in, policy []float32) float64 {
	e.once.Do(e.first)
	if slices.Equal(in, e.root) {
		e.rootSeen.Store(true)
	}
	return e.Evaluator.Evaluate(in, policy)
}

// TestWorkerSwapResetsTable: the fleet-shared transposition table is keyed by
// position only, so the worker clears it at the swap barrier. After a swap it
// is empty before the new round's first search evaluates anything, and no
// evaluation made under version v is loaded by a search running under v+1:
// every round opens on the empty board, which a stale table would answer from
// v's entry, so each version's own network must be asked for it.
func TestWorkerSwapResetsTable(t *testing.T) {
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	lcfg := testLearnerConfig(t, t.TempDir(), 8)
	lcfg.Loop.GateEvery = 1
	learner, err := NewLearner(lis, lcfg)
	if err != nil {
		t.Fatal(err)
	}

	g := tictactoe.New()
	c, h, wd := g.EncodedShape()
	root := make([]float32, c*h*wd)
	g.NewInitial().Encode(root)

	var w *Worker
	var nets []*rootWatch
	var entriesAtFirstEval []int
	wcfg := testWorkerConfig(t, "w", fabric.Dialer(), 1)
	wcfg.TransposeSize = 4096
	wcfg.NewEvaluator = func(net *nn.Network) evaluate.Evaluator {
		e := &rootWatch{Evaluator: evaluate.NewNN(net), root: root}
		e.first = func() { entriesAtFirstEval = append(entriesAtFirstEval, w.trans.Len()) }
		nets = append(nets, e)
		return e
	}
	if w, err = NewWorker(wcfg); err != nil {
		t.Fatal(err)
	}
	done := make(chan WorkerStats, 1)
	go func() { done <- w.Run() }()
	learner.Run(nil)
	w.Stop()
	st := <-done

	if st.Swaps < 1 || len(nets) != st.Swaps+1 {
		t.Fatalf("%d swaps over %d networks, want at least one swap and a network per version", st.Swaps, len(nets))
	}
	for k, e := range nets {
		if k < len(entriesAtFirstEval) && !e.rootSeen.Load() {
			t.Errorf("network %d searched without ever evaluating the empty board: it was served another version's entry", k)
		}
	}
	// Before a round's first evaluation returns, its games can have entered
	// nothing but their common root.
	for k, n := range entriesAtFirstEval {
		if n > 1 {
			t.Errorf("network %d's first evaluation found %d entries in the table, want it cleared at the swap", k, n)
		}
	}
	if len(entriesAtFirstEval) < 2 {
		t.Fatalf("only %d networks ever evaluated: no round ran after a swap", len(entriesAtFirstEval))
	}
}

// TestReadAheadIsBounded: with SGD stalled the worker stops producing within
// MaxReadAheadRounds rounds — its flush blocks on the unread pipe as on a full
// socket — and resumes when the learner does.
func TestReadAheadIsBounded(t *testing.T) {
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	const rounds = MaxReadAheadRounds + 4
	lcfg := testLearnerConfig(t, t.TempDir(), rounds)
	lcfg.RoundGames = 2 // the worker's fleet: cmd/train's topology
	lcfg.Loop.GateEvery = 0
	learner, err := NewLearner(lis, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(testWorkerConfig(t, "w", fabric.Dialer(), 1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan WorkerStats, 1)
	go func() { done <- w.Run() }()

	played := func() int { // rounds the worker has finished playing
		w.mu.Lock()
		defer w.mu.Unlock()
		return (int(w.sent.Load()) + len(w.outbox)) / lcfg.RoundGames
	}
	stalled, resume := make(chan struct{}), make(chan struct{})
	reportCh := make(chan train.LoopReport, 1)
	go func() {
		reportCh <- learner.Run(func(s train.LoopRoundStats) {
			if s.Round == 0 {
				close(stalled)
				<-resume
			}
		})
	}()
	<-stalled
	// Round 0 is consumed and the consumer is stuck behind it. The worker
	// must fill the pipeline's buffers (train.Loop's two rounds and the
	// learner's episode buffer) and then stop: no further round in a window
	// two hundred times a round's length, and no more than K ahead.
	const filled = 2 + episodeBufferRounds
	for deadline := time.Now().Add(10 * time.Second); played()-1 < filled; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("worker only got %d rounds ahead of the stalled learner, want the buffers (%d rounds) filled", played()-1, filled)
		}
	}
	time.Sleep(100 * time.Millisecond)
	ahead := played() - 1
	time.Sleep(100 * time.Millisecond)
	if now := played() - 1; now != ahead || ahead > MaxReadAheadRounds {
		t.Fatalf("worker %d rounds ahead of the stalled learner, then %d: want it stopped within %d", ahead, now, MaxReadAheadRounds)
	}
	close(resume)
	report := <-reportCh
	w.Stop()
	if st := <-done; report.Rounds != rounds || st.Rounds < rounds {
		t.Fatalf("after the stall the learner consumed %d rounds of %d and the worker played %d", report.Rounds, rounds, st.Rounds)
	}
}

// TestLearnerDropsCorruptFrames drives the wire by hand: a corrupted
// episode frame must be counted and dropped without poisoning the round,
// and the episodes around it must still train the loop to completion.
func TestLearnerDropsCorruptFrames(t *testing.T) {
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testLearnerConfig(t, t.TempDir(), 1)
	cfg.RoundGames = 2
	cfg.Loop.GateEvery = 0
	learner, err := NewLearner(lis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reportCh := make(chan train.LoopReport, 1)
	go func() { reportCh <- learner.Run(nil) }()

	c, err := fabric.Dialer()()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello, err := encodeHello(Hello{WorkerID: "hand", GameSpec: "tictactoe", Games: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(hello); err != nil {
		t.Fatal(err)
	}
	if m, err := c.Recv(); err != nil || m.Type != msgCheckpoint {
		t.Fatalf("hello answer: %v type=%d, want checkpoint", err, m.Type)
	}

	// Samples must match the learner's network shape so SGD can run.
	g := tictactoe.New()
	ch, h, w := g.EncodedShape()
	sample := nn.Sample{Input: make([]float32, ch*h*w), Policy: make([]float32, g.NumActions()), Value: 1}
	for i := range sample.Policy {
		sample.Policy[i] = 1 / float32(len(sample.Policy))
	}
	ep := trajstore.Episode{Moves: 1, Samples: []nn.Sample{sample}}

	good := encodeEpisode(1, ep)
	bad := Msg{Type: msgEpisode, Payload: append([]byte(nil), good.Payload...)}
	bad.Payload[len(bad.Payload)-1] ^= 0xFF
	for _, m := range []Msg{bad, good, good} {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}

	report := <-reportCh
	if report.Rounds != 1 || report.Samples != 2 {
		t.Fatalf("report rounds=%d samples=%d, want 1 round of the 2 valid episodes", report.Rounds, report.Samples)
	}
	st := learner.Stats()
	if st.Rejected != 1 || st.Episodes != 2 {
		t.Fatalf("stats rejected=%d episodes=%d, want 1 rejected, 2 accepted", st.Rejected, st.Episodes)
	}
}

// TestLearnerRejectsMismatchedGame: a worker for the wrong game must be
// turned away at hello time, before any episode can reach the replay path.
func TestLearnerRejectsMismatchedGame(t *testing.T) {
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	learner, err := NewLearner(lis, testLearnerConfig(t, t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	go learner.acceptLoop()
	defer learner.Stop()

	c, err := fabric.Dialer()()
	if err != nil {
		t.Fatal(err)
	}
	hello, err := encodeHello(Hello{WorkerID: "alien", GameSpec: "hex:7", Games: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("mismatched-game hello was answered instead of closed")
	}
	if got := learner.Stats().HellosRejected; got != 1 {
		t.Fatalf("hellos rejected = %d, want 1", got)
	}
}

// TestWorkersGivenOneSeedPlayDifferentGames: two workers started with one
// Seed and different IDs must not play the same games. One learner round
// ingests both workers' first round, and no two of its episodes may be byte
// for byte the same.
func TestWorkersGivenOneSeedPlayDifferentGames(t *testing.T) {
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	traj, err := trajstore.Open(t.TempDir(), trajstore.Config{Game: "tictactoe"})
	if err != nil {
		t.Fatal(err)
	}
	defer traj.Close()
	cfg := testLearnerConfig(t, t.TempDir(), 1)
	cfg.Traj = traj
	learner, err := NewLearner(lis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan WorkerStats, 2)
	for _, id := range []string{"wa", "wb"} {
		wcfg := testWorkerConfig(t, id, fabric.Dialer(), 7)
		wcfg.Rounds = 1
		w, err := NewWorker(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		go func() { done <- w.Run() }()
	}
	learner.Run(nil)
	<-done
	<-done
	if traj.Games() != cfg.RoundGames {
		t.Fatalf("learner stored %d episodes, want one round of %d", traj.Games(), cfg.RoundGames)
	}
	seen := map[string]int{}
	for i := 0; i < traj.Games(); i++ {
		ep, err := traj.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		frame := string(trajstore.EncodeFrame(ep))
		if j, dup := seen[frame]; dup {
			t.Fatalf("episodes %d and %d are byte-identical: workers given one seed played the same game", j, i)
		}
		seen[frame] = i
	}
}

// TestWorkersSeenCountsWorkers: a worker whose connection drops and who
// redials the same learner is one worker seen, not two.
func TestWorkersSeenCountsWorkers(t *testing.T) {
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	learner, err := NewLearner(lis, testLearnerConfig(t, t.TempDir(), 3))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		first Conn
	)
	dial := fabric.Dialer()
	w, err := NewWorker(testWorkerConfig(t, "w0", func() (Conn, error) {
		c, err := dial()
		mu.Lock()
		if first == nil {
			first = c
		}
		mu.Unlock()
		return c, err
	}, 1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan WorkerStats, 1)
	go func() { done <- w.Run() }()
	learner.Run(func(s train.LoopRoundStats) {
		if s.Round == 0 {
			mu.Lock()
			first.Close() // drop the worker's first connection
			mu.Unlock()
		}
	})
	w.Stop()
	if ws := <-done; ws.Reconnects < 1 {
		t.Fatalf("worker reconnected %d times, want >= 1", ws.Reconnects)
	}
	if st := learner.Stats(); st.WorkersSeen != 1 {
		t.Fatalf("learner saw %d workers, want 1 (one worker, redialled)", st.WorkersSeen)
	}
}

// TestWorkerWithoutLearnerWaits: a worker whose learner stops plays the round
// in flight and then only the rounds its outbox can hold, drops nothing,
// delivers what it holds when a learner is back, and returns promptly from
// Stop.
func TestWorkerWithoutLearnerWaits(t *testing.T) {
	fabric := NewNetwork()
	ckptDir := t.TempDir()
	runLearner := func(rounds int) {
		lis, err := fabric.Listen()
		if err != nil {
			t.Fatal(err)
		}
		learner, err := NewLearner(lis, testLearnerConfig(t, ckptDir, rounds))
		if err != nil {
			t.Fatal(err)
		}
		learner.Run(nil) // stops the learner under the running worker
	}
	wcfg := testWorkerConfig(t, "w0", fabric.Dialer(), 1)
	wcfg.BufferEpisodes = 2 * wcfg.Games
	w, err := NewWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan WorkerStats, 1)
	go func() { done <- w.Run() }()

	// Unchecked, the worker plays a tictactoe round in milliseconds, so each
	// window would hold tens of rounds it could only drop.
	runLearner(2)
	time.Sleep(300 * time.Millisecond)
	runLearner(1)
	time.Sleep(300 * time.Millisecond)
	stopped := time.Now()
	w.Stop()
	ws := <-done
	if d := time.Since(stopped); d > 2*time.Second {
		t.Fatalf("Run returned %v after Stop", d)
	}
	if ws.Dropped != 0 {
		t.Fatalf("worker dropped %d episodes", ws.Dropped)
	}
	if ws.Reconnects < 1 {
		t.Fatalf("worker reconnected %d times, want >= 1", ws.Reconnects)
	}
	if unsent := ws.Episodes - ws.Sent; unsent > wcfg.Games+wcfg.BufferEpisodes {
		t.Fatalf("worker played %d episodes (%d rounds) it could not send, want at most the round in flight and a full outbox (%d)",
			unsent, unsent/wcfg.Games, wcfg.Games+wcfg.BufferEpisodes)
	}
}
