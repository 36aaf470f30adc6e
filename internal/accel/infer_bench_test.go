package accel_test

import (
	"fmt"
	"testing"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

func BenchmarkHostedInferGomoku(b *testing.B) {
	r := rng.New(7)
	net := nn.MustNew(nn.GomokuConfig(4, 15, 15, 225), r)
	for _, batch := range []int{1, 8, 16, 32} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			// A zero cost model: measure pure compute.
			link, err := accel.NewBackend("hosted", accel.BackendSpec{Net: net})
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]*evaluate.Request, batch)
			for i := range reqs {
				in := make([]float32, net.InputLen())
				for j := range in {
					if r.Float32() < 0.1 {
						in[j] = 1
					}
				}
				reqs[i] = &evaluate.Request{Input: in, Policy: make([]float32, 225)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				link.RunBatch(reqs)
			}
		})
	}
}
