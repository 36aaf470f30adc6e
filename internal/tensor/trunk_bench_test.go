package tensor

import (
	"fmt"
	"testing"

	"github.com/parmcts/parmcts/internal/rng"
)

// trunkShapes are the three trunk convolutions of the full 9x9 network.
var trunkShapes = []Conv2DShape{
	{InC: 4, InH: 9, InW: 9, OutC: 32, KH: 3, KW: 3, PadH: 1, PadW: 1},
	{InC: 32, InH: 9, InW: 9, OutC: 64, KH: 3, KW: 3, PadH: 1, PadW: 1},
	{InC: 64, InH: 9, InW: 9, OutC: 128, KH: 3, KW: 3, PadH: 1, PadW: 1},
}

// BenchmarkGEMMTrunk times the three trunk convolutions' GEMMs of the full
// 9x9 network (pixels x 9*InC x OutC) at batch 1 and batch 8 (one sample's
// patch matrix, and eight samples' in one call) under every kernel class
// this host can run (avx512/m81k576n128, ...) and reports GFLOP/s; the
// tables in EXPERIMENTS.md are this benchmark at -cpu 1.
func BenchmarkGEMMTrunk(b *testing.B) {
	r := rng.New(4)
	for _, kn := range Kernels() {
		for _, s := range trunkShapes {
			for _, batch := range []int{1, 8} {
				m, k, n := s.ColRows()*batch, s.ColCols(), s.OutC
				a := randFloats(r, m*k)
				bm := randFloats(r, k*n)
				c := make([]float32, m*n)
				b.Run(fmt.Sprintf("%s/m%dk%dn%d", kn, m, k, n), func(b *testing.B) {
					defer SetKernel(KernelName())
					SetKernel(kn)
					for i := 0; i < b.N; i++ {
						MatMul(c, a, bm, m, k, n)
					}
					b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
				})
			}
		}
	}
}

// BenchmarkIm2Col times the three trunk 3x3 gathers of one sample of the
// full 9x9 network (4, 32 and 64 input channels; avx512/3x3_c64, ...) in ns
// per patch-matrix element. The gather is plain Go, the same in every
// kernel class; the legs keep their per-class names so runs compare across
// versions.
func BenchmarkIm2Col(b *testing.B) {
	r := rng.New(5)
	for _, kn := range Kernels() {
		for _, s := range trunkShapes {
			img := randFloats(r, s.InC*s.InH*s.InW)
			col := make([]float32, s.ColRows()*s.ColCols())
			b.Run(fmt.Sprintf("%s/3x3_c%d", kn, s.InC), func(b *testing.B) {
				defer SetKernel(KernelName())
				SetKernel(kn)
				for i := 0; i < b.N; i++ {
					Im2Col(col, img, s)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(col)), "ns/elem")
			})
		}
	}
}
