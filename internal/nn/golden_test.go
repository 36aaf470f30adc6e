package nn

import (
	"hash/fnv"
	"math"
	"testing"

	"github.com/parmcts/parmcts/internal/game"
	_ "github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tensor"
)

// forwardGolden holds FNV-64a hashes of the b = 1 forward's policy and value
// bits on goldenPositions of every registered game. The kernel classes
// compute every output as the same FMA chain, so one row holds for all of
// them; it was recorded when the broadcast tile and the channels-last
// activations landed (EXPERIMENTS.md lists the per-class rows it replaced).
// A kernel or gather change that moves one output bit of any b = 1 forward
// pass moves a hash.
var forwardGolden = map[string]uint64{
	"connect4":  0x99a3b21b409b5703,
	"gomoku":    0xe60c5bc7dfa941d9,
	"hex":       0x50e21a00861e1977,
	"othello":   0x18e87b83fb4205ae,
	"tictactoe": 0x17ee99de2cc851c0,
	"gomoku:9":  0x137e2f30247c1710,
	"gomoku:6":  0x9995859138aaa9e5,
}

// goldenPositions returns the encoded planes of a few fixed positions of g's
// default board: the empty board and the positions 3 and 8 seeded-random
// legal plies into one game (fewer when the game ends first), plus one dense
// pseudo-random input, because board planes are mostly exact zeros and a
// zero product hides a reordered sum.
func goldenPositions(g game.Game) [][]float32 {
	c, h, w := g.EncodedShape()
	st := g.NewInitial()
	r := rng.New(7)
	var out [][]float32
	var moves []int
	for ply := 0; ply <= 8 && !st.Terminal(); ply++ {
		if ply == 0 || ply == 3 || ply == 8 {
			in := make([]float32, c*h*w)
			st.Encode(in)
			out = append(out, in)
		}
		moves = st.LegalMoves(moves[:0])
		st.Play(moves[r.Intn(len(moves))])
	}
	return append(out, randInput(r, c*h*w))
}

// forwardHash forwards every input on one workspace and hashes the raw
// output bits.
func forwardHash(net *Network, inputs [][]float32) uint64 {
	ws := NewForwardWorkspace(net)
	h := fnv.New64a()
	var buf [8]byte
	put := func(bits uint64, n int) {
		for i := 0; i < n; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:n])
	}
	for _, in := range inputs {
		pol, val := forward1(net, ws, in)
		for _, p := range pol {
			put(uint64(math.Float32bits(p)), 4)
		}
		put(math.Float64bits(val), 8)
	}
	return h.Sum64()
}

// TestForwardGolden pins the b = 1 forward bit for bit on the paper's
// network shape (GomokuConfig: 32/64/128 trunk channels) over the default
// board of every registered game (their pixel counts fall differently
// across the six-row tiles), under every kernel class this host can run.
func TestForwardGolden(t *testing.T) {
	for _, name := range game.Names() {
		if _, ok := forwardGolden[name]; !ok {
			t.Errorf("registered game %q has no golden constant", name)
		}
	}
	defer tensor.SetKernel(tensor.KernelName())
	for _, kernel := range tensor.Kernels() {
		tensor.SetKernel(kernel)
		for name, want := range forwardGolden {
			g, err := game.NewFromSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			c, h, w := g.EncodedShape()
			net := MustNew(GomokuConfig(c, h, w, g.NumActions()), rng.New(2024))
			if got := forwardHash(net, goldenPositions(g)); got != want {
				t.Errorf("kernel %s, %s (%dx%dx%d): forward bits hash %#x, recorded %#x",
					kernel, name, c, h, w, got, want)
			}
		}
	}
}

// trainStepGolden holds FNV-64a hashes of every parameter bit (in memory
// order) after one TrainBatch step at 1 and 2 workers, the same in every
// kernel class. It was recorded with forwardGolden.
var trainStepGolden = [2]uint64{0x29c8ab06f2701a64, 0x1bf82dd1631bf1a9}

// TestTrainStepGolden trains the paper's network on the benchmark board
// (gomoku:9) for one momentum-SGD step over 8 fixed samples, under every
// kernel class this host can run, and hashes the parameters.
func TestTrainStepGolden(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelName())
	for _, kernel := range tensor.Kernels() {
		if sel, err := tensor.SetKernel(kernel); err != nil || sel != kernel {
			t.Fatalf("SetKernel(%q) = %q, %v", kernel, sel, err)
		}
		for wi, workers := range []int{1, 2} {
			net := MustNew(GomokuConfig(4, 9, 9, 81), rng.New(2025))
			r := rng.New(2026)
			batch := make([]Sample, 8)
			for i := range batch {
				batch[i] = Sample{Input: randInput(r, net.InputLen()), Policy: randPolicyTarget(r, 81), Value: r.Float64()*2 - 1}
			}
			TrainBatch(net, NewSGD(0.01, 0.9, 1e-4), batch, workers)
			h := fnv.New64a()
			var buf [4]byte
			net.visitParams(func(p *tensor.Tensor) {
				for _, v := range p.Data {
					bits := math.Float32bits(v)
					buf[0], buf[1], buf[2], buf[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
					h.Write(buf[:])
				}
			})
			if got, want := h.Sum64(), trainStepGolden[wi]; got != want {
				t.Errorf("kernel %s, %d workers: parameters hash %#x after one step, recorded %#x", kernel, workers, got, want)
			}
		}
	}
}
