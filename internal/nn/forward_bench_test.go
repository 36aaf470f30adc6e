package nn

import (
	"testing"

	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tensor"
)

// BenchmarkForward9x9 times the full network on the benchmark workloads'
// board (gomoku:9): Forward of one sample, what evaluating one position
// costs, under every kernel class this host can run (avx512/batch1, ...).
// The forward has no batch dimension, so there is no batch-size sweep: a
// batch would be a loop of the same Forward. The leg keeps its batch1 name
// so runs compare across versions. EXPERIMENTS.md "The forward pass at
// hardware speed" and "An avx512 class" quote it at -cpu 1.
func BenchmarkForward9x9(b *testing.B) {
	net := MustNew(GomokuConfig(4, 9, 9, 81), rng.New(1))
	for _, kernel := range tensor.Kernels() {
		b.Run(kernel, func(b *testing.B) {
			defer tensor.SetKernel(tensor.KernelName())
			tensor.SetKernel(kernel)
			benchForward(b, net, rng.New(2))
		})
	}
}

// BenchmarkForwardBatchFP32 is Forward of one sample on the paper's 15x15
// board, in the best kernel class. It keeps its name, and its leg the name
// batch1, for the runs EXPERIMENTS.md and ROADMAP cite; like
// BenchmarkForward9x9 it has no larger batches to sweep. It allocates
// nothing per call.
func BenchmarkForwardBatchFP32(b *testing.B) {
	net := MustNew(GomokuConfig(4, 15, 15, 225), rng.New(3))
	benchForward(b, net, rng.New(9))
}

func benchForward(b *testing.B, net *Network, r *rng.Rand) {
	b.Run("batch1", func(b *testing.B) {
		ws := NewForwardWorkspace(net)
		in := randInput(r, net.InputLen())
		policy := make([]float32, net.Cfg.NumActions)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(ws, in, policy)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/sample")
	})
}
