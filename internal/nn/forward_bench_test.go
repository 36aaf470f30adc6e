package nn

import (
	"fmt"
	"testing"

	"github.com/parmcts/parmcts/internal/rng"
)

// BenchmarkForward9x9 times the full network on the benchmark workloads'
// board (gomoku:9): ForwardBatch per batch size, reported per sample (batch1
// is what evaluating one position costs). EXPERIMENTS.md "The forward pass
// at hardware speed" quotes it at -cpu 1.
func BenchmarkForward9x9(b *testing.B) {
	net := MustNew(GomokuConfig(4, 9, 9, 81), rng.New(1))
	benchForwardBatch(b, net, rng.New(2), 1, 2, 4, 8)
}

// BenchmarkForwardBatchFP32 is ForwardBatch on the paper's 15x15 board at the
// accelerator's batch sizes. It allocates nothing per call.
func BenchmarkForwardBatchFP32(b *testing.B) {
	net := MustNew(GomokuConfig(4, 15, 15, 225), rng.New(3))
	benchForwardBatch(b, net, rng.New(9), 1, 8, 16, 32)
}

func benchForwardBatch(b *testing.B, net *Network, r *rng.Rand, batches ...int) {
	for _, batch := range batches {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			ws := NewBatchWorkspace(net, batch)
			inputs := make([][]float32, batch)
			policies := make([][]float32, batch)
			values := make([]float64, batch)
			for i := range inputs {
				inputs[i] = randInput(r, net.InputLen())
				policies[i] = make([]float32, net.Cfg.NumActions)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.ForwardBatch(ws, inputs, policies, values)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/sample")
		})
	}
}
