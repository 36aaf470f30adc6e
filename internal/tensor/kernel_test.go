package tensor

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/big"
	"sync"
	"testing"

	"github.com/parmcts/parmcts/internal/rng"
)

// forceKernel switches the dispatched kernel for the duration of a test and
// restores the previous selection afterwards.
func forceKernel(t *testing.T, name string) bool {
	t.Helper()
	prev := KernelName()
	sel, err := SetKernel(name)
	if err != nil {
		t.Fatalf("SetKernel(%q): %v", name, err)
	}
	t.Cleanup(func() { SetKernel(prev) })
	if sel != name {
		t.Logf("kernel %q unavailable on this host (selected %q)", name, sel)
		return false
	}
	return true
}

func TestSetKernelUnknown(t *testing.T) {
	if _, err := SetKernel("quantum"); err == nil {
		t.Fatal("SetKernel accepted an unknown kernel name")
	}
	if _, err := SetKernel(""); err != nil {
		t.Fatalf("SetKernel(\"\") should select the best kernel: %v", err)
	}
	if got := KernelName(); got != Kernels()[len(Kernels())-1] {
		t.Fatalf("best kernel mismatch: selected %q, available %v", got, Kernels())
	}
}

// TestKernelFlag: the shared -kernel flag selects at parse time and turns an
// unknown name into a parse error (exit code 2 under flag.ExitOnError).
func TestKernelFlag(t *testing.T) {
	prev := KernelName()
	t.Cleanup(func() { SetKernel(prev) })
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	KernelFlag(fs)
	if err := fs.Parse([]string{"-kernel", KernelGeneric}); err != nil || KernelName() != KernelGeneric {
		t.Fatalf("-kernel generic: err %v, selected %q", err, KernelName())
	}
	if err := fs.Parse([]string{"-kernel", "quantum"}); err == nil {
		t.Fatal("-kernel accepted an unknown kernel name")
	}
}

func TestSetKernelUnavailableDegrades(t *testing.T) {
	// Forcing every known name must always succeed, selecting the best
	// available substitute when the hardware lacks the requested class —
	// the CI kernel matrix relies on this to run its "avx2" and "avx512"
	// legs on any runner.
	for _, name := range []string{KernelGeneric, KernelAVX2, KernelAVX512} {
		sel, err := SetKernel(name)
		if err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		if kernelAvailable(name) && sel != name {
			t.Fatalf("SetKernel(%q) selected %q despite availability", name, sel)
		}
		if !kernelAvailable(name) && sel == name {
			t.Fatalf("SetKernel(%q) claims an unavailable kernel", name)
		}
	}
	SetKernel("")
}

// randFloats fills a slice with values in [-2, 2), including exact zeros to
// exercise the zero-skip fast paths.
func randFloats(r *rng.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		if r.Float32() < 0.1 {
			continue // leave exact zero
		}
		x[i] = r.Float32()*4 - 2
	}
	return x
}

// chainGEMM is Dense's definition, element by element: each output alone,
// one fma32 chain over k in order from +0, then its bias, then the ReLU.
func chainGEMM(a, b, bias []float32, m, k, n int, relu bool) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s = fma32(a[i*k+p], b[p*n+j], s)
			}
			if bias != nil {
				s += bias[j]
			}
			if relu && s < 0 {
				s = 0
			}
			c[i*n+j] = s
		}
	}
	return c
}

// referenceGEMM is a naive triple loop in float64, the order-free ground
// truth the fp32 chains are compared against at rounding tolerance.
func referenceGEMM(a, b []float32, m, k, n int) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			c[i*n+j] = s
		}
	}
	return c
}

// exactFMA32 is fma32's definition: a*b + c summed exactly, rounded once.
func exactFMA32(a, b, c float32) float32 {
	x := new(big.Float).SetPrec(512).SetFloat64(float64(a))
	x.Mul(x, new(big.Float).SetFloat64(float64(b)))
	x.Add(x, new(big.Float).SetFloat64(float64(c)))
	f, _ := x.Float32()
	return f
}

// TestFMA32RoundsOnce: the generic class's fma32 is the fp32 FMA, rounded
// once. The pinned triple is one that float32(math.FMA(a, b, c)) gets wrong
// by rounding twice (16777220); the random ones, on both sides of
// cancellation and into the subnormals, are checked against an exact sum.
func TestFMA32RoundsOnce(t *testing.T) {
	a, b, c := math.Float32frombits(0x3f800001), math.Float32frombits(0x3f7ffffe), math.Float32frombits(0x4b800001)
	if got := fma32(a, b, c); got != 16777218 {
		t.Fatalf("fma32(%#x, %#x, %#x) = %.1f, want 16777218", math.Float32bits(a), math.Float32bits(b), math.Float32bits(c), got)
	}
	if twice := float32(math.FMA(float64(a), float64(b), float64(c))); twice != 16777220 {
		t.Fatalf("float32(math.FMA) = %.1f: the pinned triple no longer shows the double rounding", twice)
	}
	r := rng.New(3)
	for i := 0; i < 200000; i++ {
		// Exponents spread so products and addends overlap, cancel and
		// underflow.
		x := math.Float32frombits(uint32(r.Uint64())&0x807fffff | uint32(64+r.Intn(128))<<23)
		y := math.Float32frombits(uint32(r.Uint64())&0x807fffff | uint32(64+r.Intn(128))<<23)
		z := math.Float32frombits(uint32(r.Uint64())&0x807fffff | uint32(r.Intn(255))<<23)
		if i%4 == 0 {
			z = -float32(float64(x) * float64(y)) // near-total cancellation
		}
		if got, want := fma32(x, y, z), exactFMA32(x, y, z); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%#x, %#x, %#x) = %#x, want %#x", math.Float32bits(x), math.Float32bits(y), math.Float32bits(z), math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// gemmShapes covers every remainder class of the tiles and the blocking
// around them: m on both sides of a six-row tile, n on both sides of the 8-,
// 16- and 64-wide tiles (the heads' 4 and 2 channels, the value head's 1
// output, 81 actions), and long chains of k up to 2,049.
var gemmShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 5, 9}, {4, 16, 8}, {7, 33, 13}, {16, 100, 81}, {5, 257, 66},
	{2, 8, 8}, {6, 24, 16}, {7, 40, 15}, {5, 9, 17}, {12, 64, 20}, {13, 65, 23},
	{13, 64, 130}, {81, 36, 32}, {81, 128, 4}, {81, 128, 2}, {8, 162, 64}, {8, 64, 1},
	{49, 129, 64}, {96, 288, 128}, {100, 200, 48}, {1, 324, 81}, {10, 48, 81},
	{3, 1024, 70}, {7, 1030, 17}, {13, 2049, 64},
}

// TestMatMulKernelEquivalence runs the blocked GEMM under every kernel class
// this host runs across gemmShapes, with and without a bias and a ReLU, and
// holds it bit for bit to chainGEMM (so the classes agree with each other)
// and to a float64 product at rounding tolerance.
func TestMatMulKernelEquivalence(t *testing.T) {
	r := rng.New(23)
	for _, sh := range gemmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b, bias := randFloats(r, m*k), randFloats(r, k*n), randFloats(r, n)
		ref := referenceGEMM(a, b, m, k, n)
		for _, kn := range Kernels() {
			if !forceKernel(t, kn) {
				continue
			}
			c := make([]float32, m*n)
			MatMul(c, a, b, m, k, n)
			for i := range c {
				if diff := math.Abs(float64(c[i]) - ref[i]); diff > 1e-4*(1+math.Abs(ref[i])) {
					t.Fatalf("kernel %s m=%d k=%d n=%d idx %d: got %g want %g", kn, m, k, n, i, c[i], ref[i])
				}
			}
			for _, relu := range []bool{false, true} {
				for _, bs := range [][]float32{nil, bias} {
					Dense(c, a, b, bs, m, k, n, relu)
					want := chainGEMM(a, b, bs, m, k, n, relu)
					for i := range c {
						if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
							t.Fatalf("kernel %s m=%d k=%d n=%d bias=%v relu=%v (%d,%d): bits %#x, chain %#x",
								kn, m, k, n, bs != nil, relu, i/n, i%n, math.Float32bits(c[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// transBShapes are the shapes of the A·Bᵀ products the network used to
// compute with B held n x k: m mod 3 and mod 8, n mod 4 and across a
// 64-column block, k mod 8 and mod 16, and k past 512 and 1024.
var transBShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 5, 9}, {4, 16, 8}, {7, 33, 13}, {16, 100, 81}, {5, 257, 66},
	{2, 8, 8}, {3, 24, 12}, {4, 40, 15}, {5, 9, 16}, {6, 64, 20}, {8, 31, 23},
	{13, 64, 130}, {64, 36, 81}, {65, 16, 72}, {5, 530, 19}, {9, 1030, 75}, {128, 520, 9},
	{7, 16, 17}, {4, 31, 24}, {5, 32, 16}, {3, 47, 33}, {10, 48, 81},
}

// TestMatMulTransBKernelEquivalence: under every kernel class this host
// runs, A·Bᵀ for a B held n x k (the wire's out x in weight order),
// multiplied as MatMul on B transposed into k x n, is within rounding of a
// float64 product and bit for bit chainGEMM's.
func TestMatMulTransBKernelEquivalence(t *testing.T) {
	r := rng.New(23)
	for _, sh := range transBShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, bT := randFloats(r, m*k), randFloats(r, n*k)
		b := transposeB(bT, n, k)
		ref := referenceGEMM(a, b, m, k, n)
		want := chainGEMM(a, b, nil, m, k, n, false)
		for _, kn := range Kernels() {
			if !forceKernel(t, kn) {
				continue
			}
			c := make([]float32, m*n)
			MatMul(c, a, b, m, k, n)
			for i := range c {
				if diff := math.Abs(float64(c[i]) - ref[i]); diff > 1e-4*(1+math.Abs(ref[i])) {
					t.Fatalf("kernel %s m=%d k=%d n=%d idx %d: got %g want %g", kn, m, k, n, i, c[i], ref[i])
				}
				if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
					t.Fatalf("kernel %s m=%d k=%d n=%d (%d,%d): bits %#x, chain %#x",
						kn, m, k, n, i/n, i%n, math.Float32bits(c[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestElementsAreStandAloneChains is the property the network's bits rest
// on: every output element of a convolution (3x3 and 1x1, on odd boards and
// channel counts) and of a dense layer equals
// the same product computed alone — its one patch row against its one
// weight column, an fma32 chain over k in order, then its bias and the ReLU
// — in every kernel class, so the classes agree bit for bit.
func TestElementsAreStandAloneChains(t *testing.T) {
	r := rng.New(51)
	for _, s := range []Conv2DShape{
		{InC: 4, InH: 9, InW: 9, OutC: 32, KH: 3, KW: 3, PadH: 1, PadW: 1},
		{InC: 5, InH: 6, InW: 7, OutC: 70, KH: 3, KW: 3, PadH: 1, PadW: 1},
		{InC: 33, InH: 3, InW: 5, OutC: 17, KH: 3, KW: 3, PadH: 1, PadW: 1},
		{InC: 64, InH: 7, InW: 7, OutC: 4, KH: 1, KW: 1},
		{InC: 3, InH: 8, InW: 6, OutC: 9, KH: 5, KW: 5, PadH: 2, PadW: 2},
	} {
		pix, kk := s.ColRows(), s.ColCols()
		img, w, bias := randFloats(r, s.InH*s.InW*s.InC), randFloats(r, kk*s.OutC), randFloats(r, s.OutC)
		want := make([]float32, pix*s.OutC)
		col := make([]float32, pix*kk)
		im2colGeneral(col, img, s)
		for p := 0; p < pix; p++ {
			// One pixel against one output channel at a time.
			for o := 0; o < s.OutC; o++ {
				wcol := make([]float32, kk)
				for x := range wcol {
					wcol[x] = w[x*s.OutC+o]
				}
				want[p*s.OutC+o] = chainGEMM(col[p*kk:(p+1)*kk], wcol, bias[o:o+1], 1, kk, 1, true)[0]
			}
		}
		for _, kn := range Kernels() {
			if !forceKernel(t, kn) {
				continue
			}
			got := make([]float32, len(want))
			Conv2DForward(got, img, col, w, bias, s, true)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("kernel %s conv %+v: out[%d] bits %#x, alone %#x", kn, s, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
	// The dense layers: the policy head's 4 channels x 81 pixels to 81
	// actions, the value head's 2 x 81 to 64 and 64 to 1, over 5 rows.
	for _, sh := range [][2]int{{324, 81}, {162, 64}, {64, 1}} {
		const m = 5
		k, n := sh[0], sh[1]
		a, b, bias := randFloats(r, m*k), randFloats(r, k*n), randFloats(r, n)
		for _, kn := range Kernels() {
			if !forceKernel(t, kn) {
				continue
			}
			c := make([]float32, m*n)
			Dense(c, a, b, bias, m, k, n, false)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					bcol := make([]float32, k)
					for p := range bcol {
						bcol[p] = b[p*n+j]
					}
					alone := chainGEMM(a[i*k:(i+1)*k], bcol, bias[j:j+1], 1, k, 1, false)[0]
					if math.Float32bits(c[i*n+j]) != math.Float32bits(alone) {
						t.Fatalf("kernel %s dense k=%d n=%d (%d,%d): bits %#x, alone %#x", kn, k, n, i, j, math.Float32bits(c[i*n+j]), math.Float32bits(alone))
					}
				}
			}
		}
	}
}

func BenchmarkMatMulKernels(b *testing.B) {
	r := rng.New(2)
	// policy-head FC shape of the full 9x9 net: (batch x 324) * (324 x 81)
	m, k, n := 16, 324, 81
	a := randFloats(r, m*k)
	bm := randFloats(r, k*n)
	c := make([]float32, m*n)
	for _, kn := range Kernels() {
		b.Run(fmt.Sprintf("%s/m%dk%dn%d", kn, m, k, n), func(b *testing.B) {
			prev := KernelName()
			if sel, _ := SetKernel(kn); sel != kn {
				b.Skipf("kernel %s unavailable", kn)
			}
			defer SetKernel(prev)
			for i := 0; i < b.N; i++ {
				MatMul(c, a, bm, m, k, n)
			}
		})
	}
}

// TestMatMulConcurrentLaunches: overlapping products from several
// goroutines all equal the product computed alone. Run under -race it is
// the check that concurrent Dense calls share no mutable state.
func TestMatMulConcurrentLaunches(t *testing.T) {
	r := rng.New(43)
	m, k, n := 149, 40, 2*64+9
	a := randFloats(r, m*k)
	b := randFloats(r, k*n)
	want := make([]float32, m*n)
	MatMul(want, a, b, m, k, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float32, m*n)
			for rep := 0; rep < 20; rep++ {
				MatMul(c, a, b, m, k, n)
				for i := range c {
					if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
						t.Errorf("rep %d idx %d: got %g want %g", rep, i, c[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
