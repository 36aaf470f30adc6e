package tensor

import (
	"math"
	"testing"

	"github.com/parmcts/parmcts/internal/rng"
)

func randSlice(r *rng.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = r.Float32()*2 - 1
	}
	return s
}

func naiveMatMul(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero dim did not panic")
		}
	}()
	New(3, 0)
}

func TestCloneIsDeep(t *testing.T) {
	a := New(2, 2)
	a.Data[0] = 3
	b := a.Clone()
	b.Data[0] = 7
	if a.Data[0] != 3 {
		t.Error("Clone shares storage")
	}
}

func TestAXPYScale(t *testing.T) {
	a, b := New(3), New(3)
	copy(a.Data, []float32{1, 2, 3})
	copy(b.Data, []float32{4, 5, 6})
	a.AXPY(2, b)
	want := []float32{9, 12, 15}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Errorf("AXPY[%d] = %v, want %v", i, a.Data[i], want[i])
		}
	}
	a.Scale(0.5)
	if a.Data[2] != 7.5 {
		t.Errorf("Scale wrong: %v", a.Data)
	}
	if s := b.SumSquares(); math.Abs(s-77) > 1e-6 {
		t.Errorf("SumSquares = %v", s)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(21)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 13}, {64, 64, 64}, {130, 70, 90}, {4, 0, 3}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randSlice(r, m*k), randSlice(r, k*n)
		c := make([]float32, m*n)
		MatMul(c, a, b, m, k, n)
		want := naiveMatMul(a, b, m, k, n)
		if d := maxAbsDiff(c, want); d > 1e-4 {
			t.Errorf("MatMul(%v) max diff %v", dims, d)
		}
	}
}

// transposeB turns bT (n x k, the out x in order checkpoints store weights
// in) into B (k x n, the order the tile reads).
func transposeB(bT []float32, n, k int) []float32 {
	b := make([]float32, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			b[p*n+j] = bT[j*k+p]
		}
	}
	return b
}

// TestMatMulTransBMatchesNaive: C = A·Bᵀ for a B held n x k, computed as
// MatMul on B transposed into k x n, matches the naive product with Bᵀ's
// elements read in place.
func TestMatMulTransBMatchesNaive(t *testing.T) {
	r := rng.New(22)
	for _, dims := range [][3]int{{2, 3, 4}, {33, 17, 25}, {100, 64, 80}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, bT := randSlice(r, m*k), randSlice(r, n*k)
		c := make([]float32, m*n)
		MatMul(c, a, transposeB(bT, n, k), m, k, n)
		want := make([]float32, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[i*k+p] * bT[j*k+p]
				}
				want[i*n+j] = s
			}
		}
		if d := maxAbsDiff(c, want); d > 1e-4 {
			t.Errorf("A·Bᵀ(%v) max diff %v", dims, d)
		}
	}
}

func TestMatMulPanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short buffer did not panic")
		}
	}()
	MatMul(make([]float32, 3), make([]float32, 4), make([]float32, 4), 2, 2, 2)
}

// TestDenseBiasReLU: Dense adds the bias to every row and then clamps at 0,
// also when k = 0 leaves only the bias.
func TestDenseBiasReLU(t *testing.T) {
	c := make([]float32, 4)
	Dense(c, []float32{1, -3}, []float32{1, 2}, []float32{10, -20}, 2, 1, 2, false)
	want := []float32{11, -18, 7, -26}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("Dense[%d] = %v, want %v", i, c[i], want[i])
		}
	}
	Dense(c, []float32{1, -3}, []float32{1, 2}, []float32{10, -20}, 2, 1, 2, true)
	for i, w := range []float32{11, 0, 7, 0} {
		if c[i] != w {
			t.Errorf("Dense relu[%d] = %v, want %v", i, c[i], w)
		}
	}
	Dense(c, nil, nil, []float32{5, -5}, 2, 0, 2, true)
	for i, w := range []float32{5, 0, 5, 0} {
		if c[i] != w {
			t.Errorf("Dense k=0[%d] = %v, want %v", i, c[i], w)
		}
	}
}

// naiveConv computes a direct convolution for verification, channels-last
// in and out, weight (ky, kx, ic) x OutC.
func naiveConv(img, weight, bias []float32, s Conv2DShape) []float32 {
	outH, outW := s.OutH(), s.OutW()
	out := make([]float32, s.OutC*outH*outW)
	for oc := 0; oc < s.OutC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := bias[oc]
				for ic := 0; ic < s.InC; ic++ {
					for ky := 0; ky < s.KH; ky++ {
						for kx := 0; kx < s.KW; kx++ {
							iy, ix := oy+ky-s.PadH, ox+kx-s.PadW
							if iy < 0 || iy >= s.InH || ix < 0 || ix >= s.InW {
								continue
							}
							w := weight[((ky*s.KW+kx)*s.InC+ic)*s.OutC+oc]
							sum += w * img[(iy*s.InW+ix)*s.InC+ic]
						}
					}
				}
				out[(oy*outW+ox)*s.OutC+oc] = sum
			}
		}
	}
	return out
}

func TestConv2DForwardMatchesNaive(t *testing.T) {
	r := rng.New(27)
	shapes := []Conv2DShape{
		{InC: 1, InH: 5, InW: 5, OutC: 2, KH: 3, KW: 3, PadH: 1, PadW: 1},
		{InC: 3, InH: 7, InW: 6, OutC: 4, KH: 3, KW: 3, PadH: 1, PadW: 1},
		{InC: 2, InH: 8, InW: 8, OutC: 3, KH: 5, KW: 5, PadH: 0, PadW: 0},
		{InC: 4, InH: 15, InW: 15, OutC: 8, KH: 3, KW: 3, PadH: 1, PadW: 1},
	}
	for _, s := range shapes {
		img := randSlice(r, s.InC*s.InH*s.InW)
		w := randSlice(r, s.OutC*s.ColCols())
		b := randSlice(r, s.OutC)
		out := make([]float32, s.OutC*s.OutH()*s.OutW())
		col := make([]float32, s.ColRows()*s.ColCols())
		Conv2DForwardBatch(out, img, col, w, b, s, 1, false)
		want := naiveConv(img, w, b, s)
		if d := maxAbsDiff(out, want); d > 1e-4 {
			t.Errorf("conv %+v: max diff %v", s, d)
		}
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> must hold for the pair to be valid
	// linear adjoints, which is what the backward pass relies on.
	r := rng.New(28)
	s := Conv2DShape{InC: 2, InH: 6, InW: 5, OutC: 1, KH: 3, KW: 3, PadH: 1, PadW: 1}
	x := randSlice(r, s.InC*s.InH*s.InW)
	y := randSlice(r, s.ColRows()*s.ColCols())
	cx := make([]float32, s.ColRows()*s.ColCols())
	Im2Col(cx, x, s)
	var lhs float64
	for i := range cx {
		lhs += float64(cx[i]) * float64(y[i])
	}
	xty := make([]float32, len(x))
	Col2Im(xty, y, s)
	var rhs float64
	for i := range x {
		rhs += float64(x[i]) * float64(xty[i])
	}
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Errorf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestConv2DBackwardNumerically(t *testing.T) {
	r := rng.New(29)
	s := Conv2DShape{InC: 2, InH: 4, InW: 4, OutC: 3, KH: 3, KW: 3, PadH: 1, PadW: 1}
	img := randSlice(r, s.InC*s.InH*s.InW)
	w := randSlice(r, s.OutC*s.ColCols())
	b := randSlice(r, s.OutC)
	pix := s.OutH() * s.OutW()
	dOut := randSlice(r, s.OutC*pix)

	loss := func(img, w, b []float32) float64 {
		out := make([]float32, s.OutC*pix)
		col := make([]float32, s.ColRows()*s.ColCols())
		Conv2DForwardBatch(out, img, col, w, b, s, 1, false)
		var l float64
		for i := range out {
			l += float64(out[i]) * float64(dOut[i])
		}
		return l
	}

	col := make([]float32, s.ColRows()*s.ColCols())
	Im2Col(col, img, s)
	dImg := make([]float32, len(img))
	dW := make([]float32, len(w))
	dB := make([]float32, len(b))
	dCol := make([]float32, len(col))
	Conv2DBackward(dImg, dW, dB, dOut, w, col, dCol, s)

	const eps = 1e-2
	check := func(name string, buf []float32, grad []float32, count int) {
		for trial := 0; trial < count; trial++ {
			i := r.Intn(len(buf))
			orig := buf[i]
			buf[i] = orig + eps
			lp := loss(img, w, b)
			buf[i] = orig - eps
			lm := loss(img, w, b)
			buf[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(grad[i])) > 2e-2*math.Max(1, math.Abs(num)) {
				t.Errorf("%s grad[%d]: numeric %v analytic %v", name, i, num, grad[i])
			}
		}
	}
	check("weight", w, dW, 20)
	check("bias", b, dB, 3)
	check("input", img, dImg, 20)
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	const m, k, n = 128, 128, 128
	a, bb := randSlice(r, m*k), randSlice(r, k*n)
	c := make([]float32, m*n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(c, a, bb, m, k, n)
	}
}

func BenchmarkConvGomokuLayer(b *testing.B) {
	// One 32->64-channel 3x3 conv over a 15x15 board: the dominant layer of
	// the paper's network.
	r := rng.New(2)
	s := Conv2DShape{InC: 32, InH: 15, InW: 15, OutC: 64, KH: 3, KW: 3, PadH: 1, PadW: 1}
	img := randSlice(r, s.InC*s.InH*s.InW)
	w := randSlice(r, s.OutC*s.ColCols())
	bias := randSlice(r, s.OutC)
	out := make([]float32, s.OutC*s.OutH()*s.OutW())
	col := make([]float32, s.ColRows()*s.ColCols())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Conv2DForwardBatch(out, img, col, w, bias, s, 1, false)
	}
}

func TestMatMulBlockedEdgeSizes(t *testing.T) {
	// Dimensions straddling the row and column blocks exercise every
	// partial-block path of the tiles.
	r := rng.New(31)
	for _, dims := range [][3]int{{65, 257, 67}, {63, 260, 130}, {128, 513, 66}, {1, 259, 70}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randSlice(r, m*k), randSlice(r, k*n)
		c := make([]float32, m*n)
		MatMul(c, a, b, m, k, n)
		if d := maxAbsDiff(c, naiveMatMul(a, b, m, k, n)); d > 1e-3 {
			t.Errorf("MatMul(%v) max diff %v", dims, d)
		}
	}
}

// TestPackChannelsLast: packing per-sample channel-major images puts
// channel ch of pixel p of sample b at ((b*hw)+p)*c+ch.
func TestPackChannelsLast(t *testing.T) {
	r := rng.New(33)
	const c, hw, batch = 3, 10, 5
	imgs := make([][]float32, batch)
	for i := range imgs {
		imgs[i] = randSlice(r, c*hw)
	}
	packed := make([]float32, c*batch*hw)
	PackChannelsLast(packed, imgs, c, hw)
	for b, img := range imgs {
		for ch := 0; ch < c; ch++ {
			for p := 0; p < hw; p++ {
				if got := packed[(b*hw+p)*c+ch]; got != img[ch*hw+p] {
					t.Fatalf("sample %d channel %d pixel %d: %v, want %v", b, ch, p, got, img[ch*hw+p])
				}
			}
		}
	}
}

// TestConv2DForwardBatchMatchesSingle: a sample's outputs in a batch are,
// bit for bit, those of the sample convolved alone.
func TestConv2DForwardBatchMatchesSingle(t *testing.T) {
	r := rng.New(34)
	shapes := []Conv2DShape{
		{InC: 3, InH: 9, InW: 9, OutC: 8, KH: 3, KW: 3, PadH: 1, PadW: 1},
		{InC: 8, InH: 7, InW: 7, OutC: 5, KH: 1, KW: 1},
	}
	for _, s := range shapes {
		for _, batch := range []int{1, 2, 5} {
			w := randSlice(r, s.OutC*s.ColCols())
			bias := randSlice(r, s.OutC)
			imgLen, pix := s.InC*s.InH*s.InW, s.ColRows()
			imgs := randSlice(r, batch*imgLen)
			out := make([]float32, batch*pix*s.OutC)
			col := make([]float32, pix*s.ColCols())
			Conv2DForwardBatch(out, imgs, col, w, bias, s, batch, true)

			single := make([]float32, pix*s.OutC)
			for b := 0; b < batch; b++ {
				Conv2DForwardBatch(single, imgs[b*imgLen:(b+1)*imgLen], col, w, bias, s, 1, true)
				for i, want := range single {
					if got := out[b*pix*s.OutC+i]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("shape %+v batch %d sample %d out[%d]: %v, alone %v", s, batch, b, i, got, want)
					}
				}
			}
		}
	}
}
