package evaluate_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// testInput mirrors the in-package helper; this file lives in an external
// test package to use the mcts engines without an import cycle.
func testInput(seed uint64, n int) []float32 {
	r := rng.New(seed)
	in := make([]float32, n)
	for i := range in {
		in[i] = r.Float32()
	}
	return in
}

// countingEvaluator counts how many real evaluations reach it.
type countingEvaluator struct {
	inner evaluate.Evaluator
	calls atomic.Int64
}

func (c *countingEvaluator) Evaluate(input []float32, policy []float32) float64 {
	c.calls.Add(1)
	return c.inner.Evaluate(input, policy)
}

func TestCachedHitsOnRepeat(t *testing.T) {
	base := &countingEvaluator{inner: &evaluate.Random{}}
	c := evaluate.NewCached(base, 16)
	in := testInput(1, 36)
	p1 := make([]float32, 9)
	p2 := make([]float32, 9)
	v1 := c.Evaluate(in, p1)
	v2 := c.Evaluate(in, p2)
	if v1 != v2 {
		t.Fatal("cached value differs")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("cached policy differs")
		}
	}
	if base.calls.Load() != 1 {
		t.Fatalf("inner called %d times, want 1", base.calls.Load())
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", hits, misses)
	}
}

func TestCachedDistinguishesInputs(t *testing.T) {
	// One-hot inputs with different support: both the cache's hash and the
	// Random evaluator's synthetic outputs key off the zero pattern.
	c := evaluate.NewCached(&evaluate.Random{}, 16)
	a := make([]float32, 36)
	b := make([]float32, 36)
	a[0] = 1
	b[7] = 1
	pa := make([]float32, 9)
	pb := make([]float32, 9)
	va := c.Evaluate(a, pa)
	vb := c.Evaluate(b, pb)
	if va == vb {
		same := true
		for i := range pa {
			if pa[i] != pb[i] {
				same = false
			}
		}
		if same {
			t.Fatal("distinct inputs returned identical cached results")
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d", c.Len())
	}
}

func TestCachedEvictionBoundsSize(t *testing.T) {
	c := evaluate.NewCached(&evaluate.Random{}, 8)
	for i := 0; i < 100; i++ {
		in := testInput(uint64(i), 36)
		c.Evaluate(in, make([]float32, 9))
	}
	if c.Len() > 8 {
		t.Fatalf("cache grew to %d entries, cap 8", c.Len())
	}
}

func TestCachedSecondChanceKeepsHotEntries(t *testing.T) {
	c := evaluate.NewCached(&evaluate.Random{}, 4)
	hot := testInput(0, 36)
	pol := make([]float32, 9)
	c.Evaluate(hot, pol)
	for i := 1; i < 50; i++ {
		c.Evaluate(testInput(uint64(i), 36), pol)
		c.Evaluate(hot, pol) // re-touch the hot entry each round
	}
	hits, _ := c.Stats()
	// The hot entry must have survived most rounds: ~49 touch hits.
	if hits < 30 {
		t.Fatalf("hot entry evicted too eagerly: only %d hits", hits)
	}
}

func TestCachedConcurrentAccess(t *testing.T) {
	c := evaluate.NewCached(&evaluate.Random{}, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			pol := make([]float32, 9)
			for i := 0; i < 200; i++ {
				c.Evaluate(testInput(seed+uint64(i%10), 36), pol)
			}
		}(uint64(w))
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != 8*200 {
		t.Fatalf("stats %d+%d != 1600", hits, misses)
	}
}

func TestCachedPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	evaluate.NewCached(&evaluate.Random{}, 0)
}

func TestCachedSpeedsUpRealSearch(t *testing.T) {
	// Transpositions occur in real game trees: a cached evaluator must
	// serve a meaningful share of a search's evaluations from cache while
	// leaving the search result identical (the evaluator is deterministic).
	g := tictactoe.New()
	base := &countingEvaluator{inner: &evaluate.Random{}}
	c := evaluate.NewCached(base, 4096)
	cfg := mcts.DefaultConfig()
	cfg.Playouts = 500
	e := mcts.NewSerial(cfg, c)
	st := g.NewInitial()
	dist := make([]float32, 9)
	e.Search(st, dist)
	e.Search(st, dist) // second move search: same root, full reuse
	hits, misses := c.Stats()
	if hits == 0 {
		t.Fatal("no cache hits across two searches of the same position")
	}
	if base.calls.Load() != int64(misses) {
		t.Fatalf("inner calls %d != misses %d", base.calls.Load(), misses)
	}
}

func TestCachedShardedExplicitShardCount(t *testing.T) {
	c := evaluate.NewCachedSharded(&evaluate.Random{}, 1024, 64)
	if c.Shards() != 64 {
		t.Fatalf("Shards = %d, want 64", c.Shards())
	}
	// shards clamp to capacity so the size bound stays exact
	c = evaluate.NewCachedSharded(&evaluate.Random{}, 8, 64)
	if c.Shards() != 8 {
		t.Fatalf("Shards = %d, want 8", c.Shards())
	}
	for i := 0; i < 200; i++ {
		c.Evaluate(testInput(uint64(i), 36), make([]float32, 9))
	}
	if c.Len() > 8 {
		t.Fatalf("sharded cache grew to %d entries, cap 8", c.Len())
	}
}

// TestCachedShardedConcurrentEviction hammers a small sharded cache from
// many goroutines (forcing constant eviction) while other goroutines read
// the aggregate Stats and Len. Run under -race this is the concurrency
// safety net for the lock-striped design.
func TestCachedShardedConcurrentEviction(t *testing.T) {
	base := &countingEvaluator{inner: &evaluate.Random{}}
	c := evaluate.NewCachedSharded(base, 64, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Stats()
					c.Len()
				}
			}
		}()
	}
	const perWorker = 300
	var work sync.WaitGroup
	for w := 0; w < 8; w++ {
		work.Add(1)
		go func(seed uint64) {
			defer work.Done()
			pol := make([]float32, 9)
			for i := 0; i < perWorker; i++ {
				c.Evaluate(testInput(seed*1000+uint64(i%150), 36), pol)
			}
		}(uint64(w))
	}
	work.Wait()
	close(stop)
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != 8*perWorker {
		t.Fatalf("stats %d+%d != %d", hits, misses, 8*perWorker)
	}
	if c.Len() > 64 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

// constEvaluator returns a fixed value (one "network version") and counts
// how many evaluations reach it.
type constEvaluator struct {
	value float64
	calls atomic.Int64
}

func (c *constEvaluator) Evaluate(input []float32, policy []float32) float64 {
	c.calls.Add(1)
	for i := range policy {
		policy[i] = 1 / float32(len(policy))
	}
	return c.value
}

// TestCacheViewsDoNotMixVersions: the same position cached under two live
// model versions must stay two separate entries, each answered by its own
// version's network.
func TestCacheViewsDoNotMixVersions(t *testing.T) {
	c := evaluate.NewCached(&constEvaluator{value: 0}, 128)
	inc := &constEvaluator{value: 1}
	cand := &constEvaluator{value: 2}
	v1 := c.View(1, inc)
	v2 := c.View(2, cand)

	pol := make([]float32, 9)
	in := testInput(7, 36)
	if got := v1.Evaluate(in, pol); got != 1 {
		t.Fatalf("v1 evaluation = %v, want 1", got)
	}
	if got := v2.Evaluate(in, pol); got != 2 {
		t.Fatalf("v2 evaluation = %v, want 2 (served the incumbent's cached entry?)", got)
	}
	// Repeats hit the per-version entries without touching the networks.
	for i := 0; i < 5; i++ {
		if got := v1.Evaluate(in, pol); got != 1 {
			t.Fatalf("v1 repeat = %v", got)
		}
		if got := v2.Evaluate(in, pol); got != 2 {
			t.Fatalf("v2 repeat = %v", got)
		}
	}
	if inc.calls.Load() != 1 || cand.calls.Load() != 1 {
		t.Fatalf("repeats missed the cache: %d/%d inner calls", inc.calls.Load(), cand.calls.Load())
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want one per view", c.Len())
	}
	if c.Reset(); c.Len() != 0 {
		t.Fatalf("Reset left %d entries", c.Len())
	}
}

// TestCacheShardSpreadOnRealEncodings: one-hot board planes must spread over
// every lock stripe. The plane hash's low bits barely move on such inputs,
// and a shard index taken from them once put a whole game into one stripe of
// sixteen (cache occupancy pinned at 1/16).
func TestCacheShardSpreadOnRealEncodings(t *testing.T) {
	const positions, shards = 4096, 16
	for _, spec := range []string{"gomoku:9", "othello:6"} {
		t.Run(spec, func(t *testing.T) {
			g := games.MustNew(spec)
			c := evaluate.NewCachedSharded(&evaluate.Random{}, 1<<16, shards)
			st := g.NewInitial()
			ch, h, w := st.EncodedShape()
			input, policy := make([]float32, ch*h*w), make([]float32, st.NumActions())
			r := rng.New(3)
			var legal []int
			for c.Len() < positions { // random playouts until enough distinct positions
				if st.Terminal() {
					st = g.NewInitial()
				}
				legal = st.LegalMoves(legal[:0])
				st.Play(legal[r.Intn(len(legal))])
				st.Encode(input)
				c.Evaluate(input, policy)
			}
			mean := positions / shards
			for i, n := range c.ShardLens() {
				if n == 0 || n > 2*mean {
					t.Fatalf("shard %d holds %d of %d positions (mean %d): %v", i, n, positions, mean, c.ShardLens())
				}
			}
		})
	}
}

// benchState builds a midgame gomoku position and its encoding buffers.
func benchState(b *testing.B) (st game.State, input, policy []float32) {
	b.Helper()
	g := gomoku.NewSized(9)
	st = g.NewInitial()
	r := rng.New(7)
	var legal []int
	for i := 0; i < 20; i++ {
		legal = st.LegalMoves(legal[:0])
		st.Play(legal[r.Intn(len(legal))])
	}
	c, h, w := st.EncodedShape()
	return st, make([]float32, c*h*w), make([]float32, st.NumActions())
}

// BenchmarkCacheProbePlaneHash is the classic probe: encode the planes,
// then hash every float of the tensor to build the key.
func BenchmarkCacheProbePlaneHash(b *testing.B) {
	st, input, policy := benchState(b)
	cached := evaluate.NewCached(&evaluate.Random{}, 1024)
	st.Encode(input)
	cached.Evaluate(input, policy) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Encode(input)
		cached.Evaluate(input, policy)
	}
}

// BenchmarkCacheContention compares the lock-striped evaluation cache
// against a single-mutex (shards=1) configuration under concurrent
// shared-tree-style access: 8 goroutines, hot working set, cheap inner
// evaluator so lock handoff dominates.
func BenchmarkCacheContention(b *testing.B) {
	inputs := make([][]float32, 256)
	for i := range inputs {
		inputs[i] = testInput(uint64(i), 64)
	}
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"global", 1}, {"sharded64", 64}} {
		b.Run(cfg.name, func(b *testing.B) {
			c := evaluate.NewCachedSharded(&evaluate.Random{}, 4096, cfg.shards)
			const workers = 8
			per := (b.N + workers - 1) / workers
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					pol := make([]float32, 9)
					for i := 0; i < per; i++ {
						c.Evaluate(inputs[(seed*31+i)%len(inputs)], pol)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// tinyNN is a seeded small network for st's game behind the production
// evaluator.
func tinyNN(t *testing.T, st game.State) *evaluate.NN {
	t.Helper()
	c, h, w := st.EncodedShape()
	net, err := nn.New(nn.TinyConfig(c, h, w, st.NumActions()), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return evaluate.NewNN(net)
}

func sameDist(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for a := range want {
		if got[a] != want[a] {
			t.Fatalf("%s: dist[%d] = %v over the cache, %v over the bare network", what, a, got[a], want[a])
		}
	}
}

// TestCachedExactAcrossMoveOrders: gomoku stones {10, 40, 70} played as
// 10,40,70 and as 70,40,10 are one position to the transposition table (same
// Zobrist hash, same state key) but two network inputs, because the last-move
// plane differs. A search of the second order over a cache warmed by the
// first must read the network's output for its own input.
func TestCachedExactAcrossMoveOrders(t *testing.T) {
	g := gomoku.NewSized(9)
	play := func(moves ...int) game.State {
		st := g.NewInitial()
		for _, m := range moves {
			st.Play(m)
		}
		return st
	}
	a, b := play(10, 40, 70), play(70, 40, 10)
	if a.Hash() != b.Hash() || !bytes.Equal(a.AppendStateKey(nil), b.AppendStateKey(nil)) {
		t.Fatal("the two move orders no longer share a hash and state key")
	}
	bare := tinyNN(t, a)
	cached := evaluate.NewCached(bare, 1<<12)
	cfg := mcts.DefaultConfig()
	cfg.Playouts = 64
	got, want := make([]float32, g.NumActions()), make([]float32, g.NumActions())
	mcts.NewSerial(cfg, cached).Search(a, got)
	mcts.NewSerial(cfg, cached).Search(b, got)
	mcts.NewSerial(cfg, bare).Search(b, want)
	sameDist(t, "70,40,10 after 10,40,70", got, want)
}

// TestCachedExactUnderEngines: an evaluation cache is invisible to search.
// Serial and Shared(1) with warm trees return bit-identical root
// distributions over NewCached(NN) and over the bare NN, move after move.
func TestCachedExactUnderEngines(t *testing.T) {
	const moves = 8
	var hits uint64
	engines := []struct {
		name string
		new  func(mcts.Config, evaluate.Evaluator) mcts.Engine
	}{
		{"serial", func(cfg mcts.Config, ev evaluate.Evaluator) mcts.Engine { return mcts.NewSerial(cfg, ev) }},
		{"shared-1", func(cfg mcts.Config, ev evaluate.Evaluator) mcts.Engine { return mcts.NewShared(cfg, 1, ev) }},
	}
	for _, spec := range []string{"othello:6", "gomoku:9"} {
		for _, eng := range engines {
			t.Run(spec+"/"+eng.name, func(t *testing.T) {
				g := games.MustNew(spec)
				st := g.NewInitial()
				bare := tinyNN(t, st)
				cached := evaluate.NewCached(bare, 1<<14)
				cfg := mcts.DefaultConfig()
				cfg.Playouts = 400
				cfg.ReuseTree = true
				ce, be := eng.new(cfg, cached), eng.new(cfg, bare)
				defer ce.Close()
				defer be.Close()
				got, want := make([]float32, g.NumActions()), make([]float32, g.NumActions())
				for ply := 0; ply < moves; ply++ {
					if st.Terminal() {
						t.Fatalf("game over at ply %d", ply)
					}
					ce.Search(st, got)
					be.Search(st, want)
					sameDist(t, fmt.Sprintf("ply %d", ply), got, want)
					action := 0
					for a := range want {
						if want[a] > want[action] {
							action = a
						}
					}
					st.Play(action)
					ce.Advance(action)
					be.Advance(action)
				}
				h, _ := cached.Stats()
				hits += h
			})
		}
	}
	if hits == 0 {
		t.Fatal("no cache hit: no run served an evaluation from the cache")
	}
}
