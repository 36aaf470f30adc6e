package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collided %d/1000 times", same)
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	r := New(0)
	var zeroes int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeroes++
		}
	}
	if zeroes > 1 {
		t.Fatalf("zero seed produced degenerate stream (%d zero outputs)", zeroes)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream mirrors parent (%d collisions)", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestGammaMean(t *testing.T) {
	r := New(12)
	for _, alpha := range []float64{0.3, 0.5, 1, 2, 5} {
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			v := r.GammaFloat64(alpha)
			if v < 0 {
				t.Fatalf("gamma(%v) variate negative: %v", alpha, v)
			}
			sum += v
		}
		mean := sum / n
		if math.Abs(mean-alpha) > 0.05*math.Max(1, alpha) {
			t.Errorf("gamma(%v) mean = %v, want ~%v", alpha, mean, alpha)
		}
	}
}

func TestGammaPanicsOnNonPositiveAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GammaFloat64(0) did not panic")
		}
	}()
	New(1).GammaFloat64(0)
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(13)
	if err := quick.Check(func(dimRaw uint8) bool {
		dim := int(dimRaw%30) + 2
		out := make([]float64, dim)
		r.Dirichlet(0.3, out)
		var sum float64
		for _, v := range out {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(14)
	for _, n := range []int{0, 1, 2, 17, 225} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestMul64MatchesBigMul(t *testing.T) {
	if err := quick.Check(func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// reference via math/bits-free decomposition: check lo is wrapped
		// product and the identity (a*b) mod 2^64 == lo.
		if lo != a*b {
			return false
		}
		// verify hi by reconstructing with 32-bit limbs independently
		const m = 1<<32 - 1
		al, ah := a&m, a>>32
		bl, bh := b&m, b>>32
		mid := ah*bl + (al*bl)>>32
		mid2 := mid&m + al*bh
		wantHi := ah*bh + mid>>32 + mid2>>32
		return hi == wantHi
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(225)
	}
	_ = sink
}
