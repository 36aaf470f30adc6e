package nn

import (
	"math"
	"sync"

	"github.com/parmcts/parmcts/internal/tensor"
)

// BatchWorkspace holds every buffer one batched forward pass needs, sized
// for a maximum batch. Activations are channels-last, one sample after
// another (pixel p of sample b holds its channels at (b*H*W+p)*C), so a
// layer's (B*pix) x OutC output is the next layer's input as it stands: the
// 3x3 convolutions gather a sample's patch rows out of it, the heads' 1x1
// convolutions multiply it as their patch matrix, and the dense layers read
// a sample's rows as its flattened features.
//
// A workspace is not safe for concurrent use; concurrent sub-batches each
// take their own from a BatchWorkspacePool.
type BatchWorkspace struct {
	cfg    Config
	shapes [5]tensor.Conv2DShape
	capB   int

	xIn     []float32    // (B*H*W) x InC: the inputs, packed channels-last
	convAct [5][]float32 // per layer: (B*pix) x OutC, post-ReLU
	col     []float32    // one sample's im2col scratch, sized for the widest trunk layer
	logits  []float32    // B x NumActions
	vHide   []float32    // B x ValueHide
	vOut    []float32    // B (pre-tanh)
}

// NewBatchWorkspace allocates a workspace able to process up to maxBatch
// samples per call.
func NewBatchWorkspace(net *Network, maxBatch int) *BatchWorkspace {
	if maxBatch < 1 {
		panic("nn: batch workspace capacity must be >= 1")
	}
	cfg := net.Cfg
	ws := &BatchWorkspace{cfg: cfg, shapes: cfg.convShapes(), capB: maxBatch}
	hw := cfg.H * cfg.W
	ws.xIn = make([]float32, cfg.InC*maxBatch*hw)
	maxCol := 0
	for i, s := range ws.shapes {
		ws.convAct[i] = make([]float32, s.OutC*maxBatch*s.ColRows())
		if c := s.ColRows() * s.ColCols(); i < 3 && c > maxCol {
			maxCol = c
		}
	}
	ws.col = make([]float32, maxCol)
	ws.logits = make([]float32, maxBatch*cfg.NumActions)
	ws.vHide = make([]float32, maxBatch*cfg.ValueHide)
	ws.vOut = make([]float32, maxBatch)
	return ws
}

// Cap returns the maximum batch size the workspace can process.
func (ws *BatchWorkspace) Cap() int { return ws.capB }

// BatchWorkspacePool is a get-or-grow pool of one network's batch
// workspaces, of whatever capacities its batches needed: recurring batch
// sizes run allocation-free, and the garbage collector reclaims what goes
// unused. It is the one pooled forward evaluate.NN computes through, both
// in production and behind the simulated accelerator; the zero value is not
// usable, and it is safe for concurrent use.
type BatchWorkspacePool struct {
	net  *Network
	pool sync.Pool
}

// NewBatchWorkspacePool returns an empty pool of net's workspaces.
func NewBatchWorkspacePool(net *Network) *BatchWorkspacePool {
	return &BatchWorkspacePool{net: net}
}

// ForwardBatch is Network.ForwardBatch on a pooled workspace: one that is
// large enough for the batch, else a new one of exactly that capacity (the
// smaller one it replaces is dropped).
func (p *BatchWorkspacePool) ForwardBatch(inputs [][]float32, policies [][]float32, values []float64) {
	ws, _ := p.pool.Get().(*BatchWorkspace)
	if ws == nil || ws.capB < len(inputs) {
		ws = NewBatchWorkspace(p.net, len(inputs))
	}
	p.net.ForwardBatch(ws, inputs, policies, values)
	p.pool.Put(ws)
}

// ForwardBatch evaluates len(inputs) samples in one pass; it is the
// network's one forward, run by every evaluation and every training step.
// Each inputs[i] must have length net.InputLen(); policies[i] must be
// preallocated with NumActions elements and is filled with the softmaxed
// policy; values[i] receives the tanh value. len(inputs) must not exceed
// ws.Cap().
//
// The outputs for a sample are bit for bit those of a batch holding it
// alone, at every batch size and slot, and the same in every kernel class:
// every layer is tensor.Dense, whose outputs are each one FMA chain that
// reads nothing of the other samples (TestForwardBatchMatchesForward).
// TestForwardGolden pins the b = 1 bits.
func (net *Network) ForwardBatch(ws *BatchWorkspace, inputs [][]float32, policies [][]float32, values []float64) {
	b := len(inputs)
	if b == 0 {
		return
	}
	if b > ws.capB {
		panic("nn: ForwardBatch batch exceeds workspace capacity")
	}
	if len(policies) < b || len(values) < b {
		panic("nn: ForwardBatch output slices shorter than batch")
	}
	inLen := net.InputLen()
	for i, in := range inputs {
		if len(in) != inLen {
			panic("nn: ForwardBatch input length mismatch")
		}
		if len(policies[i]) < net.Cfg.NumActions {
			panic("nn: ForwardBatch policy slice shorter than NumActions")
		}
	}
	cfg := ws.cfg
	hw := cfg.H * cfg.W

	// Trunk: three 3x3 convolutions over the whole batch.
	tensor.PackChannelsLast(ws.xIn[:b*hw*cfg.InC], inputs, cfg.InC, hw)
	cur := ws.xIn
	for i := 0; i < 3; i++ {
		s := ws.shapes[i]
		out := ws.convAct[i][:b*s.ColRows()*s.OutC]
		tensor.Conv2DForwardBatch(out, cur, ws.col, net.ConvW[i].Data, net.ConvB[i].Data, s, b, true)
		cur = out
	}

	// Heads: the policy and value 1x1 convolutions take the trunk output as
	// their patch matrix, every pixel of the batch in one GEMM each.
	c3 := cfg.Trunk[2]
	pAct := ws.convAct[3][:b*hw*cfg.PolicyC]
	vAct := ws.convAct[4][:b*hw*cfg.ValueC]
	tensor.Dense(pAct, cur, net.ConvW[3].Data, net.ConvB[3].Data, b*hw, c3, cfg.PolicyC, true)
	tensor.Dense(vAct, cur, net.ConvW[4].Data, net.ConvB[4].Data, b*hw, c3, cfg.ValueC, true)

	// Policy head: batched FC + row-wise softmax.
	logits := ws.logits[:b*cfg.NumActions]
	tensor.Dense(logits, pAct, net.PolW.Data, net.PolB.Data, b, hw*cfg.PolicyC, cfg.NumActions, false)
	for i := 0; i < b; i++ {
		softmax(policies[i], logits[i*cfg.NumActions:(i+1)*cfg.NumActions])
	}

	// Value head: batched FC + ReLU + batched FC + tanh.
	vHide := ws.vHide[:b*cfg.ValueHide]
	tensor.Dense(vHide, vAct, net.Val1W.Data, net.Val1B.Data, b, hw*cfg.ValueC, cfg.ValueHide, true)
	vOut := ws.vOut[:b]
	tensor.Dense(vOut, vHide, net.Val2W.Data, net.Val2B.Data, b, cfg.ValueHide, 1, false)
	for i, v := range vOut {
		values[i] = math.Tanh(float64(v))
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
