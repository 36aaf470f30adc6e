// Package nn implements the policy/value network used by DNN-MCTS.
//
// The architecture matches the paper's evaluation setup ("5 convolution
// layers and 3 fully-connected layers", Section 5.1), which is the standard
// Gomoku AlphaZero network:
//
//	trunk:  conv3x3(inC->c1) ReLU, conv3x3(c1->c2) ReLU, conv3x3(c2->c3) ReLU
//	policy: conv1x1(c3->pc) ReLU, FC(pc*H*W -> actions), softmax
//	value:  conv1x1(c3->vc) ReLU, FC(vc*H*W -> hidden) ReLU, FC(hidden -> 1), tanh
//
// That is 5 convolutions and 3 fully-connected layers in total. Forward and
// backward passes are pure Go. There is one forward, ForwardBatch: every
// evaluation runs it (a single position is a batch of one) and so does every
// training step, whose backward pass reads its activations. Batches are
// parallelised across samples by internal/evaluate.
package nn

import (
	"flag"
	"fmt"
	"math"

	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tensor"
)

// Config describes the network shape.
type Config struct {
	InC, H, W  int   // input planes and board dimensions
	Trunk      []int // output channels of the three 3x3 trunk convolutions
	PolicyC    int   // channels of the 1x1 policy-head convolution
	ValueC     int   // channels of the 1x1 value-head convolution
	ValueHide  int   // width of the value head's hidden FC layer
	NumActions int   // policy output size
}

// GomokuConfig returns the paper's network for an H x W board with inC
// input planes.
func GomokuConfig(inC, h, w, actions int) Config {
	return Config{
		InC: inC, H: h, W: w,
		Trunk:      []int{32, 64, 128},
		PolicyC:    4,
		ValueC:     2,
		ValueHide:  64,
		NumActions: actions,
	}
}

// TinyConfig returns a small network for fast tests.
func TinyConfig(inC, h, w, actions int) Config {
	return Config{
		InC: inC, H: h, W: w,
		Trunk:      []int{4, 8, 8},
		PolicyC:    2,
		ValueC:     1,
		ValueHide:  8,
		NumActions: actions,
	}
}

// ConfigFor is the binaries' -full-net switch: the paper's network
// (GomokuConfig) when full, the small one (TinyConfig) otherwise.
func ConfigFor(full bool, inC, h, w, actions int) Config {
	if full {
		return GomokuConfig(inC, h, w, actions)
	}
	return TinyConfig(inC, h, w, actions)
}

// FullNetFlag registers the -full-net flag whose value ConfigFor takes; note,
// if any, is appended to the usage string.
func FullNetFlag(fs *flag.FlagSet, note string) *bool {
	return fs.Bool("full-net", false, "use the full 5-conv+3-FC network"+note)
}

func (c Config) validate() error {
	if c.InC <= 0 || c.H <= 0 || c.W <= 0 || c.NumActions <= 0 {
		return fmt.Errorf("nn: invalid dimensions %+v", c)
	}
	if len(c.Trunk) != 3 {
		return fmt.Errorf("nn: trunk must have exactly 3 conv layers, got %d", len(c.Trunk))
	}
	if c.Trunk[0] <= 0 || c.Trunk[1] <= 0 || c.Trunk[2] <= 0 {
		return fmt.Errorf("nn: invalid trunk widths %v", c.Trunk)
	}
	if c.PolicyC <= 0 || c.ValueC <= 0 || c.ValueHide <= 0 {
		return fmt.Errorf("nn: invalid head sizes %+v", c)
	}
	// Every parameter, activation and im2col size is the product of some of
	// these dimensions (9: a 3x3 kernel's taps), so while their product fits
	// in an int none of those sizes can overflow.
	n := 1
	for _, d := range []int{c.InC, c.H, c.W, 9, c.Trunk[0], c.Trunk[1], c.Trunk[2], c.PolicyC, c.ValueC, c.ValueHide, c.NumActions} {
		if n > math.MaxInt/d {
			return fmt.Errorf("nn: dimensions overflow %+v", c)
		}
		n *= d
	}
	return nil
}

// convShapes returns the five convolution shapes in order: trunk x3,
// policy 1x1, value 1x1.
func (c Config) convShapes() [5]tensor.Conv2DShape {
	var s [5]tensor.Conv2DShape
	in := c.InC
	for i, out := range c.Trunk {
		s[i] = tensor.Conv2DShape{InC: in, InH: c.H, InW: c.W, OutC: out, KH: 3, KW: 3, PadH: 1, PadW: 1}
		in = out
	}
	s[3] = tensor.Conv2DShape{InC: in, InH: c.H, InW: c.W, OutC: c.PolicyC, KH: 1, KW: 1}
	s[4] = tensor.Conv2DShape{InC: in, InH: c.H, InW: c.W, OutC: c.ValueC, KH: 1, KW: 1}
	return s
}

// Network holds the parameters. Parameters are read concurrently by many
// inference workers; mutation (training steps) must be externally
// synchronised with inference (the training pipeline alternates phases, as
// in Algorithm 1).
type Network struct {
	Cfg Config

	// Weights are held in the order the GEMM reads them, in x out: a
	// convolution's rows are its patch-matrix columns, taps (ky, kx, c) in
	// the gather's order; a dense layer's rows are its input's
	// channels-last flatten, (pixel, channel). Save and Load convert from
	// and to the wire's out x in layout (see layout).
	ConvW [5]*tensor.Tensor // each (KH*KW*InC) x OutC
	ConvB [5]*tensor.Tensor // each OutC

	PolW  *tensor.Tensor // (H*W*PolicyC) x NumActions
	PolB  *tensor.Tensor // NumActions
	Val1W *tensor.Tensor // (H*W*ValueC) x ValueHide
	Val1B *tensor.Tensor // ValueHide
	Val2W *tensor.Tensor // ValueHide x 1
	Val2B *tensor.Tensor // 1
}

// layout places one parameter: a weight of out units over ch input channels
// of px positions each (kernel taps or board pixels), or a bias of out
// (ch = px = 1, bias set). On the wire a weight is out x ch x px, each
// unit's row channel-major as the network was first written; in memory it
// is px x ch x out, the GEMM's in x out.
type layout struct {
	out, ch, px int
	bias        bool
}

// layouts returns every parameter's layout in visitParams order: a weight
// followed by its bias for each layer.
func (c Config) layouts() []layout {
	var ls []layout
	for _, s := range c.convShapes() {
		ls = append(ls, layout{out: s.OutC, ch: s.InC, px: s.KH * s.KW}, layout{out: s.OutC, ch: 1, px: 1, bias: true})
	}
	hw := c.H * c.W
	return append(ls,
		layout{out: c.NumActions, ch: c.PolicyC, px: hw}, layout{out: c.NumActions, ch: 1, px: 1, bias: true},
		layout{out: c.ValueHide, ch: c.ValueC, px: hw}, layout{out: c.ValueHide, ch: 1, px: 1, bias: true},
		layout{out: 1, ch: c.ValueHide, px: 1}, layout{out: 1, ch: 1, px: 1, bias: true})
}

// len returns the parameter's element count.
func (l layout) len() int { return l.out * l.ch * l.px }

// shape returns the in-memory shape.
func (l layout) shape() []int {
	if l.bias {
		return []int{l.out}
	}
	return []int{l.px * l.ch, l.out}
}

// convert copies a parameter between its wire and memory layouts, to the
// wire when toWire is set.
func (l layout) convert(dst, src []float32, toWire bool) {
	for o := 0; o < l.out; o++ {
		for c := 0; c < l.ch; c++ {
			for p := 0; p < l.px; p++ {
				w, m := (o*l.ch+c)*l.px+p, (p*l.ch+c)*l.out+o
				if toWire {
					dst[w] = src[m]
				} else {
					dst[m] = src[w]
				}
			}
		}
	}
}

// New creates a network with He-initialised weights drawn from r and zero
// biases. The weights are drawn in wire order, so a seed makes the same
// network whatever the memory layout.
func New(cfg Config, r *rng.Rand) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{Cfg: cfg}
	ls := cfg.layouts()
	for i, p := range n.params() {
		l := ls[i]
		*p = tensor.New(l.shape()...)
		if !l.bias {
			l.convert((*p).Data, heInit(r, l.len(), l.ch*l.px), false)
		}
	}
	return n, nil
}

// MustNew is New but panics on config errors; for tests and examples.
func MustNew(cfg Config, r *rng.Rand) *Network {
	n, err := New(cfg, r)
	if err != nil {
		panic(err)
	}
	return n
}

// heInit draws n weights of standard deviation sqrt(2/fanIn).
func heInit(r *rng.Rand, n, fanIn int) []float32 {
	w := make([]float32, n)
	std := float32(1.0)
	if fanIn > 0 {
		std = float32(1.4142135623730951 / sqrtF(float64(fanIn)))
	}
	for i := range w {
		w[i] = float32(r.NormFloat64()) * std
	}
	return w
}

func sqrtF(x float64) float64 {
	// local wrapper to keep math import out of the hot path file
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// NumParams returns the total parameter count.
func (n *Network) NumParams() int {
	total := 0
	n.visitParams(func(t *tensor.Tensor) { total += t.Len() })
	return total
}

// params returns the parameter fields in a fixed order — the order of
// layouts, visitParams and the wire format.
func (n *Network) params() []**tensor.Tensor {
	p := make([]**tensor.Tensor, 0, 2*len(n.ConvW)+6)
	for i := range n.ConvW {
		p = append(p, &n.ConvW[i], &n.ConvB[i])
	}
	return append(p, &n.PolW, &n.PolB, &n.Val1W, &n.Val1B, &n.Val2W, &n.Val2B)
}

// visitParams calls f on every parameter tensor in a fixed order.
func (n *Network) visitParams(f func(*tensor.Tensor)) {
	for _, p := range n.params() {
		f(*p)
	}
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{Cfg: n.Cfg}
	dst := c.params()
	for i, p := range n.params() {
		*dst[i] = (*p).Clone()
	}
	return c
}

// InputLen returns the flattened input size C*H*W.
func (n *Network) InputLen() int { return n.Cfg.InC * n.Cfg.H * n.Cfg.W }

// L2Norm returns the squared L2 norm of all parameters (used by the loss
// report; weight decay itself is folded into the SGD update).
func (n *Network) L2Norm() float64 {
	var s float64
	n.visitParams(func(t *tensor.Tensor) { s += t.SumSquares() })
	return s
}
