package evaluate

import (
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// countingEval is an inner evaluator that counts what reaches it and how
// many calls are inside it at once. Outputs are Random's, so they are a
// function of the input alone.
type countingEval struct {
	Random
	calls             atomic.Int64
	inside, maxInside atomic.Int64
	entered, release  chan struct{} // when set, every call announces itself and waits
}

func (f *countingEval) Evaluate(input, policy []float32) float64 {
	n := f.inside.Add(1)
	defer f.inside.Add(-1)
	for {
		m := f.maxInside.Load()
		if n <= m || f.maxInside.CompareAndSwap(m, n) {
			break
		}
	}
	if f.entered != nil {
		f.entered <- struct{}{}
		<-f.release
	}
	f.calls.Add(1)
	return f.Random.Evaluate(input, policy)
}

func requests(seeds ...uint64) []*Request {
	batch := make([]*Request, len(seeds))
	for i, s := range seeds {
		batch[i] = &Request{Input: testInput(s, 36), Policy: make([]float32, 9)}
	}
	return batch
}

// TestRunBatchForwardsExactlyTheMisses: batches of requests through a cache
// view give the outputs, hit and miss counts and entries of one request at a
// time through another view, and the inner evaluator sees each distinct
// position once, as one Evaluate: a view answers hits itself and forwards
// only its misses.
func TestRunBatchForwardsExactlyTheMisses(t *testing.T) {
	seqs := [][]uint64{{1, 2, 3}, {2, 4, 1, 5, 6, 3, 7, 8}, {9}, {1, 9, 10, 4}}

	batched := &countingEval{}
	bc := NewCachedSharded(batched, 64, 4)
	be := &EvaluatorBackend{Eval: bc.View(1, batched), Workers: 2}

	plain := &countingEval{}
	pc := NewCachedSharded(plain, 64, 4)
	pv := pc.View(1, plain)

	misses := 0
	seen := map[uint64]bool{}
	for _, seq := range seqs {
		batch := requests(seq...)
		be.RunBatch(batch)
		for i, s := range seq {
			want := make([]float32, 9)
			wantV := pv.Evaluate(testInput(s, 36), want)
			if batch[i].Value != wantV {
				t.Fatalf("seed %d: batched value %v, per-request %v", s, batch[i].Value, wantV)
			}
			for a := range want {
				if batch[i].Policy[a] != want[a] {
					t.Fatalf("seed %d action %d: batched policy %v, per-request %v", s, a, batch[i].Policy[a], want[a])
				}
			}
			if !seen[s] {
				seen[s] = true
				misses++
			}
		}
	}
	if got := batched.calls.Load(); got != int64(misses) {
		t.Fatalf("inner evaluator got %d Evaluate calls, want one for each of the %d misses", got, misses)
	}
	bh, bm := bc.Stats()
	ph, pm := pc.Stats()
	if bh != ph || bm != pm {
		t.Fatalf("batched path stats %d hits / %d misses, per-request path %d / %d", bh, bm, ph, pm)
	}
	if bc.Len() != pc.Len() {
		t.Fatalf("batched path cached %d positions, per-request path %d", bc.Len(), pc.Len())
	}
}

// TestRunBatchDuplicatePositionInOneBatch: two requests for one position in
// the same batch complete with equal outputs and leave one entry.
func TestRunBatchDuplicatePositionInOneBatch(t *testing.T) {
	inner := &countingEval{}
	c := NewCachedSharded(inner, 64, 4)
	be := &EvaluatorBackend{Eval: c.View(1, inner), Workers: 1}
	batch := requests(5, 6, 5)
	be.RunBatch(batch)
	if batch[0].Value != batch[2].Value {
		t.Fatalf("duplicate position evaluated to %v and %v", batch[0].Value, batch[2].Value)
	}
	for a := range batch[0].Policy {
		if batch[0].Policy[a] != batch[2].Policy[a] {
			t.Fatalf("duplicate position: policies differ at action %d", a)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries after {5, 6, 5}, want 2", c.Len())
	}
}

// TestRunBatchEntriesStayVersionScoped: positions a backend fills through a
// cache view are keyed by the view's version, so the same position under two
// views is two entries, and each view hits its own.
func TestRunBatchEntriesStayVersionScoped(t *testing.T) {
	inner := &countingEval{}
	c := NewCachedSharded(inner, 64, 4)
	b1 := &EvaluatorBackend{Eval: c.View(1, inner)}
	b2 := &EvaluatorBackend{Eval: c.View(2, inner)}
	b1.RunBatch(requests(1, 2, 3, 4))
	b2.RunBatch(requests(1, 2, 3))
	if c.Len() != 7 {
		t.Fatalf("cache holds %d entries, want 4 + 3 for the two views", c.Len())
	}
	before := inner.calls.Load()
	b1.RunBatch(requests(1, 2, 3, 4))
	b2.RunBatch(requests(1, 2, 3))
	if inner.calls.Load() != before {
		t.Fatal("a view re-evaluated positions it had cached")
	}
}

// TestRunBatchWorkersBoundsOverlappingBatches: Workers bounds the evaluator
// calls in flight across ALL batches, so on Workers: 1 two batches executing
// at once never overlap inside the evaluator.
func TestRunBatchWorkersBoundsOverlappingBatches(t *testing.T) {
	inner := &countingEval{entered: make(chan struct{}), release: make(chan struct{})}
	be := &EvaluatorBackend{Eval: inner, Workers: 1}
	var wg sync.WaitGroup
	for _, seeds := range [][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}} {
		wg.Add(1)
		go func(batch []*Request) {
			defer wg.Done()
			be.RunBatch(batch)
		}(requests(seeds...))
	}
	// Each request's Evaluate parks inside the evaluator until released
	// here. While one is parked the other batch has every chance to get in,
	// and must not; the peak count below is the assertion, the sleep only
	// gives a violation time to happen.
	for released := 0; released < 8; released++ {
		<-inner.entered
		time.Sleep(10 * time.Millisecond)
		if n := inner.inside.Load(); n != 1 {
			t.Errorf("%d evaluator calls in flight under Workers: 1", n)
		}
		inner.release <- struct{}{}
	}
	wg.Wait()
	if inner.maxInside.Load() != 1 {
		t.Fatalf("peak %d evaluator calls in flight under Workers: 1", inner.maxInside.Load())
	}
	if inner.calls.Load() != 8 {
		t.Fatalf("%d evaluator calls, want one for each of the 8 requests", inner.calls.Load())
	}
}

// TestRunBatchUnbatchedEvaluatorGetsOneEvaluatePerRequest: an evaluator,
// bare or behind a cache view, gets one Evaluate per request, and no more
// than Workers of them at once.
func TestRunBatchUnbatchedEvaluatorGetsOneEvaluatePerRequest(t *testing.T) {
	for _, viewed := range []bool{false, true} {
		inner := &countingEval{}
		var eval Evaluator = inner
		if viewed {
			eval = NewCachedSharded(eval, 64, 4).View(1, eval)
		}
		be := &EvaluatorBackend{Eval: eval, Workers: 2}
		be.RunBatch(requests(1, 2, 3, 4, 5, 6, 7))
		if inner.calls.Load() != 7 {
			t.Fatalf("viewed %v: %d Evaluate calls for 7 requests, want 7", viewed, inner.calls.Load())
		}
		if inner.maxInside.Load() > 2 {
			t.Fatalf("viewed %v: peak %d evaluations in flight under Workers: 2", viewed, inner.maxInside.Load())
		}
	}
}

// TestRunBatchMatchesEvaluateBits: through the real network, a request's
// outputs do not depend on whether it was evaluated alone or inside a batch,
// bare and behind a cache view.
func TestRunBatchMatchesEvaluateBits(t *testing.T) {
	net := testNet(t)
	fp32 := NewNN(net)
	evals := map[string]Evaluator{
		"nn":      fp32,
		"nn-view": NewCached(fp32, 64).View(1, fp32),
	}
	for name, eval := range evals {
		be := &EvaluatorBackend{Eval: eval, Workers: 2}
		batch := make([]*Request, 7)
		for i := range batch {
			batch[i] = &Request{Input: testInput(uint64(40+i), net.InputLen()), Policy: make([]float32, net.Cfg.NumActions)}
		}
		be.RunBatch(batch)
		for i, req := range batch {
			want := make([]float32, net.Cfg.NumActions)
			wantV := fp32.Evaluate(req.Input, want)
			if math.Float64bits(req.Value) != math.Float64bits(wantV) {
				t.Fatalf("%s request %d: batched value %v, single %v", name, i, req.Value, wantV)
			}
			for a := range want {
				if math.Float32bits(req.Policy[a]) != math.Float32bits(want[a]) {
					t.Fatalf("%s request %d action %d: batched policy %v, single %v", name, i, a, req.Policy[a], want[a])
				}
			}
		}
	}
}

// steadyAllocs is the allocation count f settles at: the lowest average over
// a few measured rounds. A sync.Pool is per-P, so a goroutine that lands on
// another P now and then finds its pool empty and rebuilds a workspace; that
// only ever adds.
func steadyAllocs(f func()) float64 {
	best := math.Inf(1)
	for round := 0; round < 5; round++ {
		best = math.Min(best, testing.AllocsPerRun(10, f))
	}
	return best
}

// TestForwardPathAllocations pins the steady-state allocations of the two
// calls a served playout makes into this package. NN.Evaluate allocates
// nothing — the full network (128 channels, here on a 6x6 board to keep
// the test short) — and nor does RunBatch of one request. RunBatch of 8
// over a warm cache view allocates only what forChunks needs to run a
// second chunk (its WaitGroup and closures) when every request hits, and
// exactly one object more per miss — the policy copy the cache keeps — when
// every request misses: the workspaces are pooled, and entries are stored by
// value.
func TestForwardPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	// A collection empties the pools; none may run between two measured calls.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	net := nn.MustNew(nn.GomokuConfig(4, 6, 6, 36), rng.New(3))
	eval := NewNN(net)
	in := testInput(1, net.InputLen())
	policy := make([]float32, 36)
	if a := steadyAllocs(func() { eval.Evaluate(in, policy) }); a != 0 {
		t.Errorf("NN.Evaluate allocates %v per call, want 0", a)
	}
	// A one-request batch runs on the caller, with nothing to allocate: bare,
	// behind a warm cache view, or on a Random evaluator.
	one := []*Request{{Input: in, Policy: policy}}
	for name, be := range map[string]*EvaluatorBackend{
		"nn":         {Eval: eval, Workers: 2},
		"cache view": {Eval: NewCachedSharded(eval, 64, 4).View(1, eval), Workers: 2},
		"random":     {Eval: &Random{}, Workers: 2},
	} {
		if a := steadyAllocs(func() { be.RunBatch(one) }); a != 0 {
			t.Errorf("RunBatch of one request (%s) allocates %v per call, want 0", name, a)
		}
	}

	// A cache small enough to be full — evicting, its rings at their final
	// size — after the warm-up below.
	be := &EvaluatorBackend{Eval: NewCachedSharded(eval, 64, 4).View(1, eval), Workers: 2}
	batch := make([]*Request, 8)
	for i := range batch {
		batch[i] = &Request{Input: testInput(uint64(i+2), net.InputLen()), Policy: make([]float32, 36)}
	}
	round := float32(0)
	allMiss := func() {
		round++
		for _, req := range batch {
			req.Input[0] = round + 2 // a position the cache has never seen
		}
		be.RunBatch(batch)
	}
	for i := 0; i < 16; i++ {
		allMiss()
	}
	hits := steadyAllocs(func() { be.RunBatch(batch) })
	if hits > 8 {
		t.Errorf("RunBatch of 8 hits allocates %v per call, want <= 8", hits)
	}
	misses := steadyAllocs(allMiss)
	if misses > hits+8 {
		t.Errorf("RunBatch of 8 misses allocates %v per call, want the %v of 8 hits + 1 stored policy per miss", misses, hits)
	}
	t.Logf("RunBatch of 8: %v allocations per call on hits, %v on misses", hits, misses)
}

// TestForChunks: every index is covered exactly once by at most w contiguous
// chunks, for w below, at and above n; and the chunks of one call run
// concurrently (each waits for all the others before returning).
func TestForChunks(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{0, 4}, {1, 4}, {8, 2}, {8, 3}, {7, 7}, {5, 9}, {9, 1}} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		chunks := 0
		forChunks(tc.n, tc.w, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			chunks++
			if lo >= hi || hi > tc.n {
				t.Errorf("n=%d w=%d: chunk [%d, %d)", tc.n, tc.w, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Errorf("n=%d w=%d: index %d covered %d times", tc.n, tc.w, i, c)
			}
		}
		if w := tc.w; w > 0 && chunks > min(w, tc.n) {
			t.Errorf("n=%d w=%d: %d chunks", tc.n, tc.w, chunks)
		}
	}

	var barrier sync.WaitGroup
	barrier.Add(4)
	forChunks(8, 4, func(lo, hi int) {
		barrier.Done()
		barrier.Wait() // returns only once all four chunks are running
	})
}
