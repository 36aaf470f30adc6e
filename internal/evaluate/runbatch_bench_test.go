package evaluate

import (
	"fmt"
	"testing"

	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// BenchmarkRunBatch times what a serving process does with a formed batch:
// EvaluatorBackend.RunBatch over a cache view of the full 9x9 network, every
// request a miss (one plane cell is perturbed per iteration), Workers =
// GOMAXPROCS. EXPERIMENTS.md "The forward pass at hardware speed" quotes it
// at -cpu 2.
func BenchmarkRunBatch(b *testing.B) {
	net := nn.MustNew(nn.GomokuConfig(4, 9, 9, 81), rng.New(1))
	r := rng.New(2)
	for _, n := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			eval := NewNN(net)
			be := &EvaluatorBackend{Eval: NewCachedSharded(eval, 1<<16, 16).View(1, eval)}
			batch := make([]*Request, n)
			for i := range batch {
				in := make([]float32, net.InputLen())
				for j := range in {
					if r.Float32() < 0.1 {
						in[j] = 1
					}
				}
				batch[i] = &Request{Input: in, Policy: make([]float32, 81)}
			}
			be.RunBatch(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, req := range batch {
					req.Input[0] = float32(i) + 2
				}
				be.RunBatch(batch)
			}
		})
	}
}
