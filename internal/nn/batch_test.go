package nn

import (
	"math"
	"testing"

	"github.com/parmcts/parmcts/internal/game"
	_ "github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tensor"
)

// TestForwardBatchMatchesForward is the contract of the one forward pass:
// ForwardBatch's policy and value for a sample are, bit for bit, those of the
// sample forwarded alone as a batch of one (what an evaluation of a single
// position and a training step run), whatever the batch size and wherever the
// sample sits in the batch. It holds because every layer is tensor.Dense,
// each of whose outputs is one FMA chain over its own patch row or input
// row, and everything else is elementwise. Checked on the paper's network
// over the default board of every registered game (their pixel counts fall
// differently across the six-row tiles), on the tiny test network, and
// under every kernel class this host can run; the CI kernel matrix repeats
// it with each class forced from process start.
func TestForwardBatchMatchesForward(t *testing.T) {
	configs := map[string]Config{"tiny": TinyConfig(3, 7, 7, 49)}
	for _, name := range game.Names() {
		g, err := game.New(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, h, w := g.EncodedShape()
		configs[name] = GomokuConfig(c, h, w, g.NumActions())
	}
	batches := []int{1, 2, 7, 8, 16}
	defer tensor.SetKernel(tensor.KernelName())
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			net := MustNew(cfg, rng.New(99))
			ws := NewBatchWorkspace(net, 1)
			// One workspace at the largest capacity, reused across all batch
			// sizes, as the evaluators' pools do.
			bws := NewBatchWorkspace(net, 16)
			r := rng.New(100)
			for _, kernel := range tensor.Kernels() {
				if sel, err := tensor.SetKernel(kernel); err != nil || sel != kernel {
					t.Fatalf("SetKernel(%q) = %q, %v", kernel, sel, err)
				}
				for _, b := range batches {
					inputs := make([][]float32, b)
					policies := make([][]float32, b)
					values := make([]float64, b)
					for i := range inputs {
						inputs[i] = randInput(r, net.InputLen())
						policies[i] = make([]float32, cfg.NumActions)
					}
					net.ForwardBatch(bws, inputs, policies, values)
					for i := range inputs {
						wantPol, wantV := forward1(net, ws, inputs[i])
						if math.Float64bits(values[i]) != math.Float64bits(wantV) {
							t.Fatalf("%s batch %d slot %d: value %v, alone %v", kernel, b, i, values[i], wantV)
						}
						for a := range wantPol {
							if math.Float32bits(policies[i][a]) != math.Float32bits(wantPol[a]) {
								t.Fatalf("%s batch %d slot %d action %d: policy %v, alone %v", kernel, b, i, a, policies[i][a], wantPol[a])
							}
						}
					}
				}
			}
		})
	}
}

func TestForwardBatchPanicsOverCapacity(t *testing.T) {
	net := tinyNet(t)
	bws := NewBatchWorkspace(net, 2)
	r := rng.New(5)
	inputs := make([][]float32, 3)
	policies := make([][]float32, 3)
	for i := range inputs {
		inputs[i] = randInput(r, net.InputLen())
		policies[i] = make([]float32, net.Cfg.NumActions)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("batch over workspace capacity did not panic")
		}
	}()
	net.ForwardBatch(bws, inputs, policies, make([]float64, 3))
}

func TestForwardBatchEmptyIsNoop(t *testing.T) {
	net := tinyNet(t)
	bws := NewBatchWorkspace(net, 4)
	net.ForwardBatch(bws, nil, nil, nil) // must not panic
	if bws.Cap() != 4 {
		t.Fatalf("Cap = %d", bws.Cap())
	}
}
