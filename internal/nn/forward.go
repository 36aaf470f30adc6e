package nn

import (
	"math"
	"sync"

	"github.com/parmcts/parmcts/internal/tensor"
)

// ForwardWorkspace holds every buffer one forward pass needs. Activations
// are channels-last (pixel p holds its channels at p*C), so a layer's pix x
// OutC output is the next layer's input as it stands: the 3x3 convolutions
// gather their patch rows out of it, the heads' 1x1 convolutions multiply it
// as their patch matrix, and the dense layers read it as the flattened
// features.
//
// A workspace is not safe for concurrent use; concurrent evaluations each
// take their own from a ForwardPool.
type ForwardWorkspace struct {
	shapes [5]tensor.Conv2DShape

	xIn     []float32    // H*W x InC: the input, packed channels-last
	convAct [5][]float32 // per layer: pix x OutC, post-ReLU
	col     []float32    // im2col scratch, sized for the widest trunk layer
	logits  []float32    // NumActions
	vHide   []float32    // ValueHide
	vOut    []float32    // 1 (pre-tanh)
}

// NewForwardWorkspace allocates a workspace for net's configuration.
func NewForwardWorkspace(net *Network) *ForwardWorkspace {
	cfg := net.Cfg
	ws := &ForwardWorkspace{shapes: cfg.convShapes()}
	ws.xIn = make([]float32, cfg.InC*cfg.H*cfg.W)
	maxCol := 0
	for i, s := range ws.shapes {
		ws.convAct[i] = make([]float32, s.OutC*s.ColRows())
		if c := s.ColRows() * s.ColCols(); i < 3 && c > maxCol {
			maxCol = c
		}
	}
	ws.col = make([]float32, maxCol)
	ws.logits = make([]float32, cfg.NumActions)
	ws.vHide = make([]float32, cfg.ValueHide)
	ws.vOut = make([]float32, 1)
	return ws
}

// ForwardPool is a pool of one network's forward workspaces. It is the one
// pooled forward evaluate.NN computes through, both in production and behind
// the simulated accelerator; the zero value is not usable, and it is safe for
// concurrent use.
type ForwardPool struct {
	net  *Network
	pool sync.Pool
}

// NewForwardPool returns an empty pool of net's workspaces.
func NewForwardPool(net *Network) *ForwardPool {
	p := &ForwardPool{net: net}
	p.pool.New = func() any { return NewForwardWorkspace(net) }
	return p
}

// Forward is Network.Forward on a pooled workspace.
func (p *ForwardPool) Forward(input, policy []float32) float64 {
	ws := p.pool.Get().(*ForwardWorkspace)
	v := p.net.Forward(ws, input, policy)
	p.pool.Put(ws)
	return v
}

// Forward evaluates one sample; it is the network's one forward, run by
// every evaluation and every training step. input must have length
// net.InputLen() and policy at least NumActions elements: a network loaded
// for another game panics here rather than read past its input. policy is
// filled with the softmaxed policy and the tanh value returned.
//
// Every layer is tensor.Dense, each of whose outputs is one FMA chain, so
// every kernel class gives the same bits, and a workspace's earlier samples
// leave none of theirs behind (TestForwardBatchMatchesForward).
// TestForwardGolden pins the bits.
func (net *Network) Forward(ws *ForwardWorkspace, input, policy []float32) float64 {
	cfg := net.Cfg
	if len(input) != net.InputLen() {
		panic("nn: Forward input length mismatch")
	}
	if len(policy) < cfg.NumActions {
		panic("nn: Forward policy slice shorter than NumActions")
	}
	hw := cfg.H * cfg.W

	// Trunk: three 3x3 convolutions.
	tensor.PackChannelsLast(ws.xIn, input, cfg.InC, hw)
	cur := ws.xIn
	for i := 0; i < 3; i++ {
		tensor.Conv2DForward(ws.convAct[i], cur, ws.col, net.ConvW[i].Data, net.ConvB[i].Data, ws.shapes[i], true)
		cur = ws.convAct[i]
	}

	// Heads: the policy and value 1x1 convolutions take the trunk output as
	// their patch matrix, every pixel in one GEMM each.
	c3 := cfg.Trunk[2]
	pAct, vAct := ws.convAct[3], ws.convAct[4]
	tensor.Dense(pAct, cur, net.ConvW[3].Data, net.ConvB[3].Data, hw, c3, cfg.PolicyC, true)
	tensor.Dense(vAct, cur, net.ConvW[4].Data, net.ConvB[4].Data, hw, c3, cfg.ValueC, true)

	// Policy head: FC + softmax.
	tensor.Dense(ws.logits, pAct, net.PolW.Data, net.PolB.Data, 1, hw*cfg.PolicyC, cfg.NumActions, false)
	softmax(policy, ws.logits)

	// Value head: FC + ReLU + FC + tanh.
	tensor.Dense(ws.vHide, vAct, net.Val1W.Data, net.Val1B.Data, 1, hw*cfg.ValueC, cfg.ValueHide, true)
	tensor.Dense(ws.vOut, ws.vHide, net.Val2W.Data, net.Val2B.Data, 1, cfg.ValueHide, 1, false)
	return math.Tanh(float64(ws.vOut[0]))
}

// NewBatchWorkspace is NewForwardWorkspace; the capacity is ignored. It and
// Network.ForwardBatch remain only for cmd/bench's b = 8 forward probe, which
// compiles against them; ROADMAP 8(b) deletes this.
func NewBatchWorkspace(net *Network, _ int) *ForwardWorkspace { return NewForwardWorkspace(net) }

// ForwardBatch runs Forward on each sample in turn. It remains only for
// cmd/bench's b = 8 forward probe; ROADMAP 8(b) deletes this.
func (net *Network) ForwardBatch(ws *ForwardWorkspace, inputs, policies [][]float32, values []float64) {
	for i, in := range inputs {
		values[i] = net.Forward(ws, in, policies[i])
	}
}

func softmax(dst, src []float32) {
	maxV := src[0]
	for _, v := range src[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float32
	for i, v := range src {
		e := float32(math.Exp(float64(v - maxV)))
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}
