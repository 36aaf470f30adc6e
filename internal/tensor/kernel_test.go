package tensor

import (
	"flag"
	"fmt"
	"io"
	"math"
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
	// the CI kernel matrix relies on this to run an "avx2" leg on any
	// runner.
	for _, name := range []string{KernelGeneric, KernelAVX2} {
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

// kernelSizes covers zero-length, sub-tile, non-multiple-of-4/8/16 tails
// and full-tile lengths.
var kernelSizes = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 100, 128, 257}

// TestDotKernelEquivalence pins every selectable dot4 kernel against the
// generic reference within 1e-5 across sizes including tails and
// zero-length edges.
func TestDotKernelEquivalence(t *testing.T) {
	r := rng.New(11)
	for _, n := range kernelSizes {
		a := randFloats(r, n)
		b0, b1, b2, b3 := randFloats(r, n), randFloats(r, n), randFloats(r, n), randFloats(r, n)
		g0, g1, g2, g3 := dot4Generic(a, b0, b1, b2, b3)
		for _, k := range Kernels() {
			if !forceKernel(t, k) {
				continue
			}
			s0, s1, s2, s3 := dot4(a, b0, b1, b2, b3)
			for i, pair := range [][2]float32{{s0, g0}, {s1, g1}, {s2, g2}, {s3, g3}} {
				if diff := math.Abs(float64(pair[0] - pair[1])); diff > 1e-5*(1+math.Abs(float64(pair[1]))) {
					t.Errorf("kernel %s n=%d lane %d: got %g want %g", k, n, i, pair[0], pair[1])
				}
			}
		}
	}
}

// TestDotSeqKernelEquivalence pins every selectable dotSeq kernel to the
// generic one bit for bit — a sequential sum has one order, so the classes
// may differ only in how many rows they sum at once — across row counts on
// both sides of the eight-row group and of one blockM call, lengths with and
// without a tail, storing and accumulating, into a strided C whose other
// columns must stay untouched.
func TestDotSeqKernelEquivalence(t *testing.T) {
	r := rng.New(12)
	for _, rows := range []int{1, 7, 8, 9, 16, 23, blockM, blockM + 8, 2*blockM + 3} {
		for _, n := range kernelSizes[1:] {
			lda, ldc := n+r.Intn(3), 1+r.Intn(3)
			a := randFloats(r, rows*lda)
			b := randFloats(r, n)
			base := randFloats(r, rows*ldc)
			for _, acc := range []bool{false, true} {
				want := append([]float32(nil), base...)
				dotSeqGeneric(want, ldc, a, lda, rows, b, acc)
				for _, k := range Kernels() {
					if !forceKernel(t, k) {
						continue
					}
					got := append([]float32(nil), base...)
					dotSeq(got, ldc, a, lda, rows, b, acc)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("kernel %s rows=%d n=%d acc=%v idx %d: got %g want %g", k, rows, n, acc, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// referenceGEMMTransB is a naive triple loop in float64, the order-free
// ground truth both blocked fp32 kernels are compared against.
func referenceGEMMTransB(a, b []float32, m, k, n int) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[j*k+p])
			}
			c[i*n+j] = s
		}
	}
	return c
}

// transBShapes covers every remainder class of the register tile and the
// blocking around it: m mod 3, the tile's rows (and m below one tile), m mod
// 8 for the sequential columns, n mod tileCols, n mod tileGroup and n across
// a 64-column block, k mod 8, and k beyond one and two 512-wide K blocks.
var transBShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 5, 9}, {4, 16, 8}, {7, 33, 13}, {16, 100, 81}, {5, 257, 66},
	{2, 8, 8}, {3, 24, 12}, {4, 40, 15}, {5, 9, 16}, {6, 64, 20}, {8, 31, 23},
	{13, 64, 130}, {64, 36, 81}, {65, 16, 72}, {5, 530, 19}, {9, 1030, 75}, {128, 520, 9},
}

// TestMatMulTransBKernelEquivalence runs the full blocked GEMM under every
// kernel forcing value across transBShapes and compares against a float64
// reference at rounding tolerance AND, bit for bit, against the GEMM as it
// was with the single-row 1x8 tile (refMatMulTransB): the register tile
// changed how many accumulators share a loaded vector, not the order in
// which any output element is summed.
func TestMatMulTransBKernelEquivalence(t *testing.T) {
	r := rng.New(23)
	for _, sh := range transBShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randFloats(r, m*k)
		b := randFloats(r, n*k)
		want := referenceGEMMTransB(a, b, m, k, n)
		for _, kn := range Kernels() {
			if !forceKernel(t, kn) {
				continue
			}
			c := make([]float32, m*n)
			MatMulTransB(c, a, b, m, k, n)
			for i := range c {
				if diff := math.Abs(float64(c[i]) - want[i]); diff > 1e-4*(1+math.Abs(want[i])) {
					t.Fatalf("kernel %s m=%d k=%d n=%d idx %d: got %g want %g", kn, m, k, n, i, c[i], want[i])
				}
			}
			ref := make([]float32, m*n)
			refMatMulTransB(ref, a, b, m, k, n, dotTile != nil)
			for i := range c {
				if math.Float32bits(c[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("kernel %s m=%d k=%d n=%d idx %d (row %d col %d): bits %#x, 1x8-tile reference %#x",
						kn, m, k, n, i, i/n, i%n, math.Float32bits(c[i]), math.Float32bits(ref[i]))
				}
			}
		}
	}
}

// TestMatMulTransBIntoSegments: a product written into a column window of a
// wider C (what Conv2DForwardBatch does per sample) has the bits of the
// stand-alone product and touches nothing outside its window.
func TestMatMulTransBIntoSegments(t *testing.T) {
	r := rng.New(41)
	for _, sh := range [][3]int{{3, 20, 9}, {7, 33, 13}, {66, 40, 81}, {128, 520, 17}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randFloats(r, m*k)
		for _, kn := range Kernels() {
			if !forceKernel(t, kn) {
				continue
			}
			const segs = 3
			wide := make([]float32, m*segs*n)
			for i := range wide {
				wide[i] = -7
			}
			for s := segs - 1; s >= 1; s-- { // leave segment 0 untouched
				b := randFloats(r, n*k)
				alone := make([]float32, m*n)
				MatMulTransB(alone, a, b, m, k, n)
				matMulTransBInto(wide, segs*n, s*n, a, b, m, k, n)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						if got, want := wide[i*segs*n+s*n+j], alone[i*n+j]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("kernel %s m=%d k=%d n=%d seg %d (%d,%d): got %g want %g", kn, m, k, n, s, i, j, got, want)
						}
					}
				}
			}
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					if wide[i*segs*n+j] != -7 {
						t.Fatalf("kernel %s m=%d k=%d n=%d: segment 0 overwritten at (%d,%d)", kn, m, k, n, i, j)
					}
				}
			}
		}
	}
}

// TestMatMulKernelEquivalence is the same sweep for MatMul, which takes B
// untransposed and runs MatMulTransB on its transpose.
func TestMatMulKernelEquivalence(t *testing.T) {
	r := rng.New(29)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 5}, {4, 8, 16}, {7, 33, 13}, {16, 100, 81}, {3, 257, 40}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randFloats(r, m*k)
		bT := make([]float32, k*n) // MatMul takes B (k x n) directly
		for i := range bT {
			bT[i] = r.Float32()*4 - 2
		}
		// reference via transposing B into (n x k) and reusing the helper
		bRows := make([]float32, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bRows[j*k+p] = bT[p*n+j]
			}
		}
		want := referenceGEMMTransB(a, bRows, m, k, n)
		for _, kn := range Kernels() {
			if !forceKernel(t, kn) {
				continue
			}
			c := make([]float32, m*n)
			MatMul(c, a, bT, m, k, n)
			for i := range c {
				if diff := math.Abs(float64(c[i]) - want[i]); diff > 1e-4*(1+math.Abs(want[i])) {
					t.Fatalf("kernel %s m=%d k=%d n=%d idx %d: got %g want %g", kn, m, k, n, i, c[i], want[i])
				}
			}
		}
	}
}

func BenchmarkDotKernel(b *testing.B) {
	r := rng.New(1)
	const n = 1152 // widest im2col row of the full Gomoku net (128*9)
	a := randFloats(r, n)
	b0, b1, b2, b3 := randFloats(r, n), randFloats(r, n), randFloats(r, n), randFloats(r, n)
	for _, k := range Kernels() {
		b.Run(k, func(b *testing.B) {
			prev := KernelName()
			if sel, _ := SetKernel(k); sel != k {
				b.Skipf("kernel %s unavailable", k)
			}
			defer SetKernel(prev)
			b.SetBytes(4 * 5 * n)
			for i := 0; i < b.N; i++ {
				dot4(a, b0, b1, b2, b3)
			}
		})
	}
}

func BenchmarkMatMulTransBKernels(b *testing.B) {
	r := rng.New(2)
	// policy-head FC shape of the full 9x9 net: (batch x 324) * (81 x 324)^T
	m, k, n := 16, 324, 81
	a := randFloats(r, m*k)
	bm := randFloats(r, n*k)
	c := make([]float32, m*n)
	for _, kn := range Kernels() {
		b.Run(fmt.Sprintf("%s/m%dk%dn%d", kn, m, k, n), func(b *testing.B) {
			prev := KernelName()
			if sel, _ := SetKernel(kn); sel != kn {
				b.Skipf("kernel %s unavailable", kn)
			}
			defer SetKernel(prev)
			for i := 0; i < b.N; i++ {
				MatMulTransB(c, a, bm, m, k, n)
			}
		})
	}
}

// TestMatMulTransBConcurrentLaunches: overlapping multi-block products from
// several goroutines — each taking a pooled job and task, contending for the
// pool workers, absorbing the blocks nobody picked up — all equal the
// product computed alone. Run under -race it is the check on the job pool's
// reuse protocol.
func TestMatMulTransBConcurrentLaunches(t *testing.T) {
	r := rng.New(43)
	m, k, n := 3*blockM+5, 40, 2*blockN+9 // four row blocks, above parallelThreshold
	a := randFloats(r, m*k)
	b := randFloats(r, n*k)
	want := make([]float32, m*n)
	matMulTransBRange(want, n, 0, a, b, 0, m, k, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float32, m*n)
			for rep := 0; rep < 20; rep++ {
				MatMulTransB(c, a, b, m, k, n)
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
