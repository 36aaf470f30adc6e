package serve

import (
	"net/http"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/nn"
)

// TestE2ETombstoneContractUnderSaturation pins the 410-vs-404 contract
// under sustained saturation: rejected creates must not consume the
// tombstone budget, so a genuinely evicted game keeps answering 410 Gone
// no matter how many saturated create attempts follow. Before the
// accounting fix every rejected engine-starts create burned a tombstone
// slot, flushing real evictions out of the window and turning their
// contractual 410s into indistinguishable 404s.
func TestE2ETombstoneContractUnderSaturation(t *testing.T) {
	gate := make(chan struct{})
	cfg := testConfig(t)
	cfg.MaxSessions = 1
	cfg.MaxConcurrentMoves = 1
	cfg.TombstoneBudget = 8
	cfg.NewEvaluator = func(int64, *nn.Network) evaluate.Evaluator {
		return &gateEval{gate: gate}
	}
	svc, ts := startServer(t, cfg)

	// A is a real game the client holds an id for; creating B evicts it
	// (one-session budget) and records its tombstone.
	respA, snapA := post(t, ts.URL+"/v1/game/new", newGameRequest{})
	if respA.StatusCode != http.StatusCreated {
		t.Fatalf("game A: status %d", respA.StatusCode)
	}
	respB, snapB := post(t, ts.URL+"/v1/game/new", newGameRequest{})
	if respB.StatusCode != http.StatusCreated {
		t.Fatalf("game B: status %d", respB.StatusCode)
	}

	// Saturate: a gated move on B holds the single admission token.
	moveDone := make(chan int, 1)
	go func() {
		moveDone <- postStatus(ts.URL+"/v1/game/"+snapB.ID+"/move", move(0))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().MovesInFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("move on B never entered flight")
		}
		time.Sleep(time.Millisecond)
	}

	// Hammer the saturated server with far more rejected engine-starts
	// creates than the 8-entry tombstone window holds. Every one must
	// answer 429 and leave no tombstone behind.
	const spam = 20
	for i := 0; i < spam; i++ {
		if code := postStatus(ts.URL+"/v1/game/new", newGameRequest{EngineStarts: true}); code != http.StatusTooManyRequests {
			t.Fatalf("saturated create %d: status %d, want 429", i, code)
		}
	}

	// The contract: A was genuinely evicted, so it still answers 410 Gone —
	// its tombstone survived the spam (404 here is the regression).
	get, err := http.Get(ts.URL + "/v1/game/" + snapA.ID)
	if err != nil {
		t.Fatalf("GET game A: %v", err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusGone {
		t.Fatalf("evicted game A after create spam: status %d, want 410 (tombstone flushed by rejected creates?)", get.StatusCode)
	}

	st := svc.Stats()
	// Only A and B were ever real creations: the rejected creates undid
	// their created increment and count under rejected alone.
	if st.SessionsCreated != 2 {
		t.Fatalf("SessionsCreated = %d, want 2 (rejected creates must not count)", st.SessionsCreated)
	}
	if st.MovesRejected < spam {
		t.Fatalf("MovesRejected = %d, want >= %d", st.MovesRejected, spam)
	}
	// Evictions: A for B's create, plus at most B when a saturated create
	// made room before being rejected. Never one per rejected create.
	if st.SessionsEvicted > 2 {
		t.Fatalf("SessionsEvicted = %d, want <= 2 (rejected creates must not count as evictions)", st.SessionsEvicted)
	}

	close(gate)
	if code := <-moveDone; code != http.StatusOK && code != http.StatusGone {
		t.Fatalf("gated move on B finished with status %d, want 200 or 410", code)
	}
}

// TestMoveRejectedLeavesLRUUntouched: a 429-rejected move must not refresh
// the session's LRU position or idle clock — a client hammering a
// saturated server cannot keep itself warm with moves that never ran, nor
// push an actively-playing session toward the LRU end.
func TestMoveRejectedLeavesLRUUntouched(t *testing.T) {
	gate := make(chan struct{})
	cfg := testConfig(t)
	cfg.MaxConcurrentMoves = 1
	cfg.NewEvaluator = func(int64, *nn.Network) evaluate.Evaluator {
		return &gateEval{gate: gate}
	}
	svc := NewService(cfg)
	defer func() {
		close(gate)
		svc.Close()
	}()

	snapA, _, err := svc.NewGame(false)
	if err != nil {
		t.Fatalf("NewGame A: %v", err)
	}
	snapB, _, err := svc.NewGame(false)
	if err != nil {
		t.Fatalf("NewGame B: %v", err)
	}

	lruBack := func() string {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.lru.Back().Value.(*gameSession).id
	}
	lastUsed := func(id string) time.Time {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.sessions[id].lastUsed
	}
	if got := lruBack(); got != snapA.ID {
		t.Fatalf("LRU back = %s, want A (%s)", got, snapA.ID)
	}
	beforeA := lastUsed(snapA.ID)

	// A gated move on B takes the single admission token and blocks.
	moveDone := make(chan error, 1)
	go func() {
		_, _, merr := svc.Move(snapB.ID, 0)
		moveDone <- merr
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().MovesInFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("move on B never entered flight")
		}
		time.Sleep(time.Millisecond)
	}

	// Hammering A while saturated: every attempt is 429-rejected and must
	// leave A exactly where it was — at the LRU end, idle clock untouched.
	for i := 0; i < 10; i++ {
		if _, _, merr := svc.Move(snapA.ID, 0); merr != ErrSaturated {
			t.Fatalf("move on A while saturated: err %v, want ErrSaturated", merr)
		}
	}
	if got := lruBack(); got != snapA.ID {
		t.Fatalf("LRU back after rejected moves = %s, want A (%s): 429s refreshed the LRU", got, snapA.ID)
	}
	if after := lastUsed(snapA.ID); !after.Equal(beforeA) {
		t.Fatalf("lastUsed of A changed across rejected moves: %v -> %v", beforeA, after)
	}

	close(gate)
	gate = make(chan struct{}) // deferred close closes the fresh one
	if merr := <-moveDone; merr != nil {
		t.Fatalf("gated move on B: %v", merr)
	}
	// An ADMITTED move does refresh the LRU: B just moved, so A stays back;
	// play one admitted move on A and it must come forward.
	if _, _, merr := svc.Move(snapA.ID, snapA.Legal[0]); merr != nil {
		t.Fatalf("admitted move on A: %v", merr)
	}
	if got := lruBack(); got == snapA.ID {
		t.Fatalf("admitted move on A did not refresh its LRU position")
	}
}

// TestNewGameSaturationRollbackAccounting: a create rejected at the
// engine-opening search is rolled back completely — no session, no
// tombstone, no eviction count, created undone — and surfaces only in the
// rejected counter.
func TestNewGameSaturationRollbackAccounting(t *testing.T) {
	gate := make(chan struct{})
	cfg := testConfig(t)
	cfg.MaxConcurrentMoves = 1
	cfg.NewEvaluator = func(int64, *nn.Network) evaluate.Evaluator {
		return &gateEval{gate: gate}
	}
	svc := NewService(cfg)
	defer func() {
		close(gate)
		svc.Close()
	}()

	snapA, _, err := svc.NewGame(false)
	if err != nil {
		t.Fatalf("NewGame A: %v", err)
	}
	moveDone := make(chan error, 1)
	go func() {
		_, _, merr := svc.Move(snapA.ID, 0)
		moveDone <- merr
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().MovesInFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("move on A never entered flight")
		}
		time.Sleep(time.Millisecond)
	}

	if _, _, gerr := svc.NewGame(true); gerr != ErrSaturated {
		t.Fatalf("engine-starts create while saturated: err %v, want ErrSaturated", gerr)
	}

	st := svc.Stats()
	if st.SessionsCreated != 1 {
		t.Fatalf("SessionsCreated = %d, want 1 (rollback must undo the increment)", st.SessionsCreated)
	}
	if st.SessionsEvicted != 0 {
		t.Fatalf("SessionsEvicted = %d, want 0 (rollback is not an eviction)", st.SessionsEvicted)
	}
	if st.MovesRejected != 1 {
		t.Fatalf("MovesRejected = %d, want 1", st.MovesRejected)
	}
	svc.mu.Lock()
	tombs := len(svc.evicted)
	live := len(svc.sessions)
	svc.mu.Unlock()
	if tombs != 0 {
		t.Fatalf("tombstones after rollback = %d, want 0", tombs)
	}
	if live != 1 {
		t.Fatalf("live sessions = %d, want 1 (only A)", live)
	}

	close(gate)
	gate = make(chan struct{})
	if merr := <-moveDone; merr != nil {
		t.Fatalf("gated move on A: %v", merr)
	}
}

// TestTombstoneRingWraps drives the fixed-size tombstone ring through
// several wraps and checks the window always holds exactly the newest
// TombstoneBudget ids: older evictions fall back to 404, the newest keep
// answering 410.
func TestTombstoneRingWraps(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxSessions = 1
	cfg.TombstoneBudget = 4
	svc := NewService(cfg)
	defer svc.Close()

	const total = 11 // evicts 10 sessions: 2.5 ring wraps
	ids := make([]string, 0, total)
	for i := 0; i < total; i++ {
		snap, _, err := svc.NewGame(false)
		if err != nil {
			t.Fatalf("NewGame %d: %v", i, err)
		}
		ids = append(ids, snap.ID)
	}

	// The last session is live; of the 10 evicted, only the newest 4
	// tombstones survive the ring.
	for i, id := range ids[:total-1] {
		_, err := svc.Get(id)
		if i < total-1-cfg.TombstoneBudget {
			if err != ErrNotFound {
				t.Fatalf("old eviction %d: err %v, want ErrNotFound (outside the window)", i, err)
			}
		} else if err != ErrGone {
			t.Fatalf("recent eviction %d: err %v, want ErrGone", i, err)
		}
	}
	if _, err := svc.Get(ids[total-1]); err != nil {
		t.Fatalf("live session: %v", err)
	}
	svc.mu.Lock()
	tombs := len(svc.evicted)
	svc.mu.Unlock()
	if tombs != cfg.TombstoneBudget {
		t.Fatalf("tombstone count = %d, want exactly the %d-entry window", tombs, cfg.TombstoneBudget)
	}
}
