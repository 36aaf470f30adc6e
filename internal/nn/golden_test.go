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
// bits on goldenPositions of every registered game, per tensor kernel class.
// They were recorded at the commit BEFORE the register-tiled MatMulTransB and
// the branch-free im2col landed (the TestGolden pattern of internal/mcts),
// when the single-sample pass was a separate function, and have not changed
// since: a kernel or gather change that moves one output bit of any b = 1
// forward pass moves a hash. The table is keyed by tensor.KernelName(), so
// the CI kernel matrix's avx2 leg compares against the generic row when the
// runner has no AVX2 and the selection degraded.
var forwardGolden = map[string]map[string]uint64{
	tensor.KernelGeneric: {
		"connect4":  0x5459dd4668978094,
		"gomoku":    0x87aeacedcce800f8,
		"hex":       0xf39fb078da71e627,
		"othello":   0x54be95c9662a379a,
		"tictactoe": 0x992d25f475ee86ca,
		"gomoku:9":  0x724e3971bd85dee4,
		"gomoku:6":  0x8a14a22d205f6835,
	},
	tensor.KernelAVX2: {
		"connect4":  0xf98635e8a3cbcb5,
		"gomoku":    0x413c25ae806b593d,
		"hex":       0x58f1e72186f5464f,
		"othello":   0x68a320de3cccbb2e,
		"tictactoe": 0xd7fd618af27ac048,
		"gomoku:9":  0x907482dab431b8dc,
		"gomoku:6":  0x3c4bff36407a35d8,
	},
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

// forwardHash forwards every input as a batch of one and hashes the raw
// output bits.
func forwardHash(net *Network, inputs [][]float32) uint64 {
	ws := NewBatchWorkspace(net, 1)
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

// TestForwardGolden pins the b = 1 forward bit for bit on the paper's network shape
// (GomokuConfig: 32/64/128 trunk channels, so every row remainder of the
// register tile occurs) over the default board of every registered game
// (their pixel counts fall differently across the tile, dot4 and scalar-tail
// columns).
func TestForwardGolden(t *testing.T) {
	want, ok := forwardGolden[tensor.KernelName()]
	if !ok {
		t.Fatalf("no golden constants for kernel class %q", tensor.KernelName())
	}
	for _, name := range game.Names() {
		if _, ok := want[name]; !ok {
			t.Errorf("registered game %q has no golden constant", name)
		}
	}
	for name := range want {
		g, err := game.NewFromSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		c, h, w := g.EncodedShape()
		net := MustNew(GomokuConfig(c, h, w, g.NumActions()), rng.New(2024))
		got := forwardHash(net, goldenPositions(g))
		if got != want[name] {
			t.Errorf("kernel %s, %s (%dx%dx%d): forward bits hash %#x, recorded %#x",
				tensor.KernelName(), name, c, h, w, got, want[name])
		}
	}
}

// trainStepGolden holds FNV-64a hashes of every parameter bit after one
// TrainBatch step at 1 and 2 workers, per kernel class. They were recorded
// at the commit before BackwardSample moved from the separate single-sample
// forward onto ForwardBatch: the move reads post-ReLU activations where the
// old pass kept pre-activations, and must not move one gradient bit.
var trainStepGolden = map[string][2]uint64{
	tensor.KernelGeneric: {0x69ad0526fc649911, 0xed8583362a05baa0},
	tensor.KernelAVX2:    {0x229a8fa7286ad1e2, 0x85eab24a7731fa41},
}

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
			if got, want := h.Sum64(), trainStepGolden[kernel][wi]; got != want {
				t.Errorf("kernel %s, %d workers: parameters hash %#x after one step, recorded %#x", kernel, workers, got, want)
			}
		}
	}
}
