package nn

import (
	"math"
	"testing"

	"github.com/parmcts/parmcts/internal/game"
	_ "github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tensor"
)

// TestForwardBatchMatchesForward is the contract of the one forward pass
// over a reused workspace: a sample's policy and value from a workspace that
// earlier samples ran through, held by hand or taken from a ForwardPool as
// evaluate.NN does, are bit for bit those of a fresh workspace. It holds
// because every layer overwrites the buffers it reads afterwards: each
// tensor.Dense output is one FMA chain from +0 over its own patch row or
// input row, and everything else is elementwise. Checked on the paper's
// network over the default board of every registered game (their pixel
// counts fall differently across the six-row tiles), on the tiny test
// network, and under every kernel class this host can run; the CI kernel
// matrix repeats it with each class forced from process start.
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
	defer tensor.SetKernel(tensor.KernelName())
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			net := MustNew(cfg, rng.New(99))
			reused, pool := NewForwardWorkspace(net), NewForwardPool(net)
			r := rng.New(100)
			for _, kernel := range tensor.Kernels() {
				if sel, err := tensor.SetKernel(kernel); err != nil || sel != kernel {
					t.Fatalf("SetKernel(%q) = %q, %v", kernel, sel, err)
				}
				for i := 0; i < 3; i++ {
					in := randInput(r, net.InputLen())
					wantPol, wantV := forward1(net, NewForwardWorkspace(net), in)
					pooledPol := make([]float32, cfg.NumActions)
					pooledV := pool.Forward(in, pooledPol)
					reusedPol, reusedV := forward1(net, reused, in)
					for how, got := range map[string]struct {
						pol []float32
						v   float64
					}{"reused": {reusedPol, reusedV}, "pooled": {pooledPol, pooledV}} {
						if math.Float64bits(got.v) != math.Float64bits(wantV) {
							t.Fatalf("%s sample %d: %s value %v, fresh %v", kernel, i, how, got.v, wantV)
						}
						for a := range wantPol {
							if math.Float32bits(got.pol[a]) != math.Float32bits(wantPol[a]) {
								t.Fatalf("%s sample %d action %d: %s policy %v, fresh %v", kernel, i, a, how, got.pol[a], wantPol[a])
							}
						}
					}
				}
			}
		})
	}
}

// TestForwardRejectsMisshapedInput: Forward panics on an input that is not
// InputLen() long, as from a network loaded for another game, and on a
// policy shorter than NumActions, rather than read or write past them.
func TestForwardRejectsMisshapedInput(t *testing.T) {
	net := tinyNet(t)
	ws := NewForwardWorkspace(net)
	n, actions := net.InputLen(), net.Cfg.NumActions
	for _, tc := range []struct {
		name          string
		input, policy int
	}{
		{"short input", n - 1, actions},
		{"long input", n + 1, actions},
		{"empty input", 0, actions},
		{"short policy", n, actions - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Forward of a %d-float input and a %d-entry policy did not panic", tc.input, tc.policy)
				}
			}()
			net.Forward(ws, make([]float32, tc.input), make([]float32, tc.policy))
		})
	}
}
