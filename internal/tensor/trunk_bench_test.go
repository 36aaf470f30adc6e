package tensor

import (
	"fmt"
	"testing"

	"github.com/parmcts/parmcts/internal/rng"
)

// BenchmarkMatMulTransBTrunk times the three trunk convolutions' GEMMs of
// the full 9x9 network (OutC x InC*9 x pixels) at batch 1 and batch 8 under
// every kernel class this host can run (avx2/m128k576n81, ...) and reports
// GFLOP/s; the tables in EXPERIMENTS.md "The forward pass at hardware speed"
// and "An avx512 class" are this benchmark at -cpu 1.
func BenchmarkMatMulTransBTrunk(b *testing.B) {
	r := rng.New(4)
	for _, kn := range Kernels() {
		for _, sh := range [][2]int{{32, 36}, {64, 288}, {128, 576}} {
			for _, batch := range []int{1, 8} {
				m, k, n := sh[0], sh[1], 81*batch
				a := randFloats(r, m*k)
				bm := randFloats(r, n*k)
				c := make([]float32, m*n)
				b.Run(fmt.Sprintf("%s/m%dk%dn%d", kn, m, k, n), func(b *testing.B) {
					defer SetKernel(KernelName())
					SetKernel(kn)
					for i := 0; i < b.N; i++ {
						MatMulTransB(c, a, bm, m, k, n)
					}
					b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
				})
			}
		}
	}
}

// BenchmarkIm2Col times the gather of one sample of the full 9x9 network's
// widest 3x3 layer (64 input channels) and of the heads' 1x1 transpose (128
// channels), out of a batch-of-8 activation matrix.
func BenchmarkIm2Col(b *testing.B) {
	r := rng.New(5)
	const batch = 8
	for _, s := range []Conv2DShape{
		{InC: 64, InH: 9, InW: 9, OutC: 128, KH: 3, KW: 3, PadH: 1, PadW: 1},
		{InC: 128, InH: 9, InW: 9, OutC: 4, KH: 1, KW: 1},
	} {
		img := randFloats(r, s.InC*batch*s.InH*s.InW)
		col := make([]float32, s.ColRows()*s.ColCols())
		b.Run(fmt.Sprintf("%dx%d_c%d", s.KH, s.KW, s.InC), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Im2ColStrided(col, img, s, (i%batch)*s.InH*s.InW, batch*s.InH*s.InW)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(col)), "ns/elem")
		})
	}
}
