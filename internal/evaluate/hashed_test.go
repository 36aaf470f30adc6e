package evaluate_test

import (
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/rng"
)

// fakeEnc is a stand-in Encoder whose plane encoding is a constant fill —
// used to prove the hashed probe's collision safety without needing two
// real positions that collide in 64 bits.
type fakeEnc struct{ fill float32 }

func (f fakeEnc) Encode(dst []float32) {
	for i := range dst {
		dst[i] = f.fill
	}
}

func TestEvaluateHashedMatchesEvaluate(t *testing.T) {
	g := gomoku.NewSized(9)
	st := g.NewInitial()
	st.Play(40)
	c, h, w := st.EncodedShape()
	input := make([]float32, c*h*w)
	policy := make([]float32, st.NumActions())
	key := game.StateKey(st, nil)

	base := &countingEvaluator{inner: &evaluate.Random{}}
	cached := evaluate.NewCached(base, 64)
	v1 := cached.EvaluateHashed(st.Hash(), key, st, input, policy)

	// Reference: the plain encode-then-evaluate path on the inner evaluator.
	refIn := make([]float32, len(input))
	refPol := make([]float32, len(policy))
	st.Encode(refIn)
	want := (&evaluate.Random{}).Evaluate(refIn, refPol)
	if v1 != want {
		t.Fatalf("hashed value %v != direct %v", v1, want)
	}
	for i := range policy {
		if policy[i] != refPol[i] {
			t.Fatalf("hashed policy[%d] = %v, direct %v", i, policy[i], refPol[i])
		}
	}

	// Second probe: a hit that never encodes — poison the input buffer and
	// check the inner evaluator is not consulted again.
	for i := range input {
		input[i] = -99
	}
	pol2 := make([]float32, len(policy))
	v2 := cached.EvaluateHashed(st.Hash(), key, st, input, pol2)
	if v2 != v1 {
		t.Fatalf("hashed hit value %v != first %v", v2, v1)
	}
	if base.calls.Load() != 1 {
		t.Fatalf("inner called %d times, want 1 (second probe must hit)", base.calls.Load())
	}
	if input[0] != -99 {
		t.Fatal("hit path re-encoded the input buffer")
	}
}

// TestEvaluateHashedCollisionSafety feeds two different "positions" that
// claim the SAME 64-bit hash: the verification key must keep them apart, so
// the second probe re-evaluates instead of serving the first one's result.
func TestEvaluateHashedCollisionSafety(t *testing.T) {
	base := &countingEvaluator{inner: &evaluate.Random{}}
	cached := evaluate.NewCached(base, 64)
	input := make([]float32, 36)
	p1 := make([]float32, 9)
	p2 := make([]float32, 9)
	const hash = uint64(0xC011151011)
	// fill 0 vs fill 0.75: Random keys on the zero/nonzero pattern of the
	// planes, so these two encodings evaluate to different values.
	v1 := cached.EvaluateHashed(hash, []byte("pos-a"), fakeEnc{fill: 0}, input, p1)
	v2 := cached.EvaluateHashed(hash, []byte("pos-b"), fakeEnc{fill: 0.75}, input, p2)
	if base.calls.Load() != 2 {
		t.Fatalf("inner called %d times, want 2 (collision must not serve)", base.calls.Load())
	}
	if v1 == v2 {
		t.Fatal("colliding positions returned identical values")
	}
	// The replacement is resident: re-probing pos-b hits.
	v3 := cached.EvaluateHashed(hash, []byte("pos-b"), fakeEnc{fill: 0.75}, input, p2)
	if v3 != v2 || base.calls.Load() != 2 {
		t.Fatalf("re-probe of replacement: v=%v calls=%d, want hit on %v", v3, base.calls.Load(), v2)
	}
}

// TestCacheViewEvaluateHashed: version-scoped views keep hashed probes
// separate, exactly like plane-hash probes — two model versions never serve
// each other's evaluations for the same position.
func TestCacheViewEvaluateHashed(t *testing.T) {
	b1 := &countingEvaluator{inner: &constEvaluator{value: 0.1}}
	b2 := &countingEvaluator{inner: &constEvaluator{value: 0.9}}
	cached := evaluate.NewCached(&evaluate.Random{}, 64)
	view1 := cached.View(1, b1)
	view2 := cached.View(2, b2)
	input := make([]float32, 36)
	policy := make([]float32, 9)
	key := []byte("the-position")
	const hash = uint64(42)
	if v := view1.EvaluateHashed(hash, key, fakeEnc{fill: 1}, input, policy); v != 0.1 {
		t.Fatalf("view1 value %v, want 0.1", v)
	}
	if v := view2.EvaluateHashed(hash, key, fakeEnc{fill: 1}, input, policy); v != 0.9 {
		t.Fatalf("view2 value %v, want 0.9 (not view1's cached 0.1)", v)
	}
	if b1.calls.Load() != 1 || b2.calls.Load() != 1 {
		t.Fatalf("backend calls = %d/%d, want 1/1", b1.calls.Load(), b2.calls.Load())
	}
	// Both versions now hit independently.
	view1.EvaluateHashed(hash, key, fakeEnc{fill: 1}, input, policy)
	view2.EvaluateHashed(hash, key, fakeEnc{fill: 1}, input, policy)
	if b1.calls.Load() != 1 || b2.calls.Load() != 1 {
		t.Fatalf("hit probes reached backends: %d/%d", b1.calls.Load(), b2.calls.Load())
	}
}

// benchState builds a midgame gomoku position with a precomputed state key,
// the workload of a transposition-aware cache probe.
func benchState(b *testing.B) (st game.State, key []byte, input, policy []float32) {
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
	return st, game.StateKey(st, nil), make([]float32, c*h*w), make([]float32, st.NumActions())
}

// BenchmarkCacheProbeHashed measures the hit-path probe cost keyed by the
// incrementally maintained Zobrist hash: no plane encoding, no plane-bit
// hashing — the satellite's headline delta against the classic probe.
func BenchmarkCacheProbeHashed(b *testing.B) {
	st, key, input, policy := benchState(b)
	cached := evaluate.NewCached(&evaluate.Random{}, 1024)
	cached.EvaluateHashed(st.Hash(), key, st, input, policy) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cached.EvaluateHashed(st.Hash(), key, st, input, policy)
	}
}

// BenchmarkCacheProbeHashedRekeyed includes recomputing the verification
// key each probe (what the engines actually do per rollout).
func BenchmarkCacheProbeHashedRekeyed(b *testing.B) {
	st, key, input, policy := benchState(b)
	cached := evaluate.NewCached(&evaluate.Random{}, 1024)
	cached.EvaluateHashed(st.Hash(), key, st, input, policy) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = game.StateKey(st, key[:0])
		cached.EvaluateHashed(st.Hash(), key, st, input, policy)
	}
}

// BenchmarkCacheProbePlaneHash is the classic probe: encode the planes,
// then hash every float of the tensor to build the key.
func BenchmarkCacheProbePlaneHash(b *testing.B) {
	st, _, input, policy := benchState(b)
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
