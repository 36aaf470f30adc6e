package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/nn"
)

// TestInFlightBudget pins the rule a served search sizes its in-flight
// budget by: ⌊evalsInFlight ÷ searching⌋, clamped to [1, max(1, Playouts ÷
// 32)], and 1 after a search that bought no evaluation.
func TestInFlightBudget(t *testing.T) {
	for _, tc := range []struct {
		searching, playouts int
		boughtNone          bool
		want                int
	}{
		{1, 100, false, 3},  // alone: the strength bound
		{5, 100, false, 3},  // 16 ÷ 5
		{6, 100, false, 2},  // 16 ÷ 6
		{8, 100, false, 2},  // serve_sat: 8 users
		{9, 100, false, 1},  // 16 ÷ 9
		{17, 100, false, 1}, // more searches than evalsInFlight: never 0
		{256, 1600, false, 1},
		{1, 400, false, 12},
		{1, 1600, false, 16}, // the evalsInFlight bound
		{1, 64, false, 2},
		{1, 31, false, 1}, // a budget under 32 playouts is serial
		{1, 100, true, 1}, // the last search was table or terminal hits only
		{8, 1600, true, 1},
	} {
		if got := inFlight(tc.searching, tc.playouts, tc.boughtNone); got != tc.want {
			t.Errorf("inFlight(searching %d, playouts %d, bought none %v) = %d, want %d",
				tc.searching, tc.playouts, tc.boughtNone, got, tc.want)
		}
	}
}

// TestMovesInFlightCountsOpeningSearch: an engine-starts creation runs a
// search like any move, so /statsz moves_in_flight counts it while it
// blocks — it used to count only the searches of Move.
func TestMovesInFlightCountsOpeningSearch(t *testing.T) {
	gate := make(chan struct{})
	cfg := testConfig(t)
	cfg.NewEvaluator = func(int64, *nn.Network) evaluate.Evaluator {
		return &gateEval{gate: gate}
	}
	svc := NewService(cfg)
	defer svc.Close()

	type opened struct {
		ms  *MoveStats
		err error
	}
	done := make(chan opened, 1)
	go func() {
		_, ms, err := svc.NewGame(true)
		done <- opened{ms, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().MovesInFlight != 1 {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("blocked opening search not counted: moves_in_flight = %d", svc.Stats().MovesInFlight)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := svc.Stats().MovesInFlight; got != 0 {
		t.Fatalf("moves_in_flight = %d after the search returned", got)
	}
	// Alone on the service, 96 playouts: the strength bound, 96 ÷ 32.
	if o.ms.InFlight != 3 {
		t.Fatalf("opening search kept %d evaluations in flight, want 3", o.ms.InFlight)
	}
}

// TestConcurrentUsersUnderBackpressure: 64 users share a service whose
// backpressure bound (16) is far below what their in-flight budgets could
// add up to. Saturated moves are retried, every game is played to the end,
// no move hangs, the server answers every request its searches submitted,
// and its counters read as one snapshot throughout.
func TestConcurrentUsersUnderBackpressure(t *testing.T) {
	const users = 64
	cfg := testConfig(t)
	cfg.MaxOutstanding = 16
	cfg.RetryAfter = time.Millisecond
	svc := NewService(cfg)
	defer svc.Close()

	stop := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		defer close(snapErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := svc.srv.Stats()
			if st.ThresholdFlushes+st.QuorumFlushes > st.Batches || st.Requests != st.Batches {
				snapErr <- fmt.Errorf("inconsistent server stats snapshot: %+v", st)
				return
			}
			if in := svc.Stats().MovesInFlight; in < 0 || in > int64(cfg.MaxOutstanding) {
				snapErr <- errors.New("moves_in_flight outside [0, admission limit]")
				return
			}
		}
	}()

	var (
		mu    sync.Mutex
		evals int64
		fail  error
	)
	record := func(ms *MoveStats, err error) bool {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case errors.Is(err, ErrSaturated):
			return false
		case err != nil:
			fail = err
		case ms != nil:
			evals += int64(ms.Evaluations)
			if ms.InFlight < 1 || ms.InFlight > maxInFlight(cfg.Search.Playouts) {
				fail = errors.New("in-flight budget outside [1, playouts ÷ 32]")
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			var snap Snapshot
			for {
				s, ms, err := svc.NewGame(u%2 == 0)
				if record(ms, err) {
					snap = s
					break
				}
				time.Sleep(time.Millisecond)
			}
			for !snap.Terminal {
				s, ms, err := svc.Move(snap.ID, snap.Legal[0])
				if !record(ms, err) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					return
				}
				snap = s
			}
		}(u)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("a move hung")
	}
	close(stop)
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
	st := svc.Stats()
	if st.GamesCompleted != users {
		t.Fatalf("%d of %d games completed", st.GamesCompleted, users)
	}
	if st.MovesInFlight != 0 || st.EvalOutstanding != 0 {
		t.Fatalf("idle service: %d searches and %d evaluations still in flight", st.MovesInFlight, st.EvalOutstanding)
	}
	if st.EvalRequests != evals || st.SearchEvaluations != evals {
		t.Fatalf("searches bought %d evaluations, the server answered %d (service counted %d)",
			evals, st.EvalRequests, st.SearchEvaluations)
	}
}
