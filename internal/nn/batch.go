package nn

import (
	"math"
	"sync"

	"github.com/parmcts/parmcts/internal/tensor"
)

// BatchWorkspace holds every buffer one batched forward pass needs, sized
// for a maximum batch. Activations live in the batch-major layout of
// tensor.Conv2DForwardBatch (channel plane c of sample b at offset
// (c*batch+b)*H*W), so each conv layer runs the whole batch against one
// weight panel — pulled through the cache once per layer instead of once per
// sample, which is where the accelerator's batch-throughput curve comes
// from — gathering and multiplying one sample at a time.
//
// A workspace is not safe for concurrent use; concurrent sub-batches each
// take their own from a BatchWorkspacePool.
type BatchWorkspace struct {
	cfg    Config
	shapes [5]tensor.Conv2DShape
	capB   int

	xIn     []float32    // InC x (B*H*W): layer-0 input, packed batch-major
	convAct [5][]float32 // per layer: OutC x (B*pix), post-ReLU
	col     []float32    // one sample's im2col scratch, sized for the widest layer
	polIn   []float32    // B rows of PolicyC*H*W (per-sample, for the FC head)
	valIn   []float32    // B rows of ValueC*H*W
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
		if c := s.ColRows() * s.ColCols(); c > maxCol {
			maxCol = c
		}
	}
	ws.col = make([]float32, maxCol)
	ws.polIn = make([]float32, maxBatch*cfg.PolicyC*hw)
	ws.valIn = make([]float32, maxBatch*cfg.ValueC*hw)
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
// alone, at every batch size and slot: each sample's convolutions are
// multiplied on their own and the dense heads round an output by its column
// alone (TestForwardBatchMatchesForward). TestForwardGolden pins the b = 1
// bits per kernel class.
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
	tensor.PackBatch(ws.xIn[:cfg.InC*b*hw], inputs, cfg.InC, hw)
	cur := ws.xIn
	for i := 0; i < 3; i++ {
		s := ws.shapes[i]
		out := ws.convAct[i][:s.OutC*b*s.ColRows()]
		tensor.Conv2DForwardBatch(cur, ws.col, s, b, tensor.ConvOut{Out: out, Weight: net.ConvW[i].Data, Bias: net.ConvB[i].Data})
		tensor.ReLUInPlace(out)
		cur = out
	}

	// Heads: the policy and value 1x1 convolutions read the same trunk
	// output, so each sample is gathered once for both.
	sp, sv := ws.shapes[3], ws.shapes[4]
	pAct := ws.convAct[3][:sp.OutC*b*hw]
	vAct := ws.convAct[4][:sv.OutC*b*hw]
	tensor.Conv2DForwardBatch(cur, ws.col, sp, b,
		tensor.ConvOut{Out: pAct, Weight: net.ConvW[3].Data, Bias: net.ConvB[3].Data},
		tensor.ConvOut{Out: vAct, Weight: net.ConvW[4].Data, Bias: net.ConvB[4].Data})

	// Policy head: ReLU + batched FC + row-wise softmax.
	tensor.ReLUInPlace(pAct)
	pD := cfg.PolicyC * hw
	polIn := ws.polIn[:b*pD]
	tensor.UnpackBatch(polIn, pAct, cfg.PolicyC, hw, b)
	logits := ws.logits[:b*cfg.NumActions]
	tensor.MatMulTransB(logits, polIn, net.PolW.Data, b, pD, cfg.NumActions)
	tensor.AddBiasRows(logits, net.PolB.Data, b, cfg.NumActions)
	for i := 0; i < b; i++ {
		softmax(policies[i], logits[i*cfg.NumActions:(i+1)*cfg.NumActions])
	}

	// Value head: ReLU + batched FC + ReLU + batched FC + tanh.
	tensor.ReLUInPlace(vAct)
	vD := cfg.ValueC * hw
	valIn := ws.valIn[:b*vD]
	tensor.UnpackBatch(valIn, vAct, cfg.ValueC, hw, b)
	vHide := ws.vHide[:b*cfg.ValueHide]
	tensor.MatMulTransB(vHide, valIn, net.Val1W.Data, b, vD, cfg.ValueHide)
	tensor.AddBiasRows(vHide, net.Val1B.Data, b, cfg.ValueHide)
	tensor.ReLUInPlace(vHide)
	vOut := ws.vOut[:b]
	tensor.MatMulTransB(vOut, vHide, net.Val2W.Data, b, cfg.ValueHide, 1)
	vb := net.Val2B.Data[0]
	for i := 0; i < b; i++ {
		values[i] = math.Tanh(float64(vOut[i] + vb))
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
