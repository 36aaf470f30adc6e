package nn

import (
	"math"
	"runtime"
	"sync"

	"github.com/parmcts/parmcts/internal/tensor"
)

// Sample is one training datapoint (s_t, pi_t, r) produced by the tree-based
// search stage (Algorithm 1 line 12).
type Sample struct {
	Input  []float32 // encoded state, length InC*H*W
	Policy []float32 // root visit distribution pi, length NumActions
	Value  float64   // final outcome r from the mover's perspective, in [-1,1]
}

// NewGradients returns zeroed gradients for net: a Network of net's shape,
// whose parameters hold a gradient each.
func NewGradients(net *Network) *Network {
	g := &Network{Cfg: net.Cfg}
	dst := g.params()
	for i, p := range net.params() {
		*dst[i] = tensor.New((*p).Shape...)
	}
	return g
}

// Add accumulates other's parameters into n's (gradients into gradients).
func (n *Network) Add(other *Network) {
	o := other.params()
	for i, p := range n.params() {
		(*p).AXPY(1, *o[i])
	}
}

// Workspace is one training worker's scratch: a ForwardWorkspace, on which
// BackwardSample runs the network's one forward and whose post-ReLU
// activations the backward pass reads, plus the gradients of those
// activations, which each layer's tensor.DenseBackward writes. A workspace
// is not safe for concurrent use.
type Workspace struct {
	fwd *ForwardWorkspace

	dLogits []float32    // the forward's policy, then the gradient w.r.t. the logits
	dVHide  []float32    // ValueHide
	dPolAct []float32    // H*W x PolicyC
	dVAct   []float32    // H*W x ValueC
	dHead   []float32    // the policy head's gradient w.r.t. the trunk output
	dTrunk  [3][]float32 // per trunk layer: gradient w.r.t. its output, pix x OutC
	dCol    []float32    // patch-matrix gradient, sized as the forward's col
}

// NewWorkspace allocates a training workspace for net's configuration.
func NewWorkspace(net *Network) *Workspace {
	ws := &Workspace{fwd: NewForwardWorkspace(net)}
	cfg, hw := net.Cfg, net.Cfg.H*net.Cfg.W
	ws.dLogits = make([]float32, cfg.NumActions)
	ws.dVHide = make([]float32, cfg.ValueHide)
	ws.dPolAct = make([]float32, hw*cfg.PolicyC)
	ws.dVAct = make([]float32, hw*cfg.ValueC)
	ws.dHead = make([]float32, hw*cfg.Trunk[2])
	for i := range ws.dTrunk {
		ws.dTrunk[i] = make([]float32, hw*cfg.Trunk[i])
	}
	ws.dCol = make([]float32, len(ws.fwd.col))
	return ws
}

// BackwardSample runs forward+backward for one sample, accumulating
// gradients into g (from NewGradients) and returning the sample's loss
// terms: valueLoss = (v - z)^2, policyLoss = -pi . log p  (Equation 2
// without the L2 term, which the optimizer applies as weight decay).
//
// Every layer's backward is tensor.DenseBackward, the adjoint of the Dense
// its forward ran: the FC layers at one row, the 1x1 head convolutions over
// the trunk output and the 3x3 trunk convolutions on their patch matrices
// (Conv2DBackward); the first layer computes no input gradient. A ReLU's
// backward gates on its post-ReLU output, act > 0 exactly where the
// pre-activation was positive.
func (net *Network) BackwardSample(ws *Workspace, g *Network, s Sample) (valueLoss, policyLoss float64) {
	f, cfg := ws.fwd, net.Cfg
	hw, c3 := cfg.H*cfg.W, cfg.Trunk[2]
	value := net.Forward(f, s.Input, ws.dLogits)

	// ---- loss gradients at the heads ----
	// Policy: L_p = -sum_a pi_a log p_a with p = softmax(logits)
	// => dL/dlogits = p - pi, written over p in place.
	for i, p := range ws.dLogits {
		ws.dLogits[i] = p - s.Policy[i]
		if s.Policy[i] > 0 {
			policyLoss -= float64(s.Policy[i]) * math.Log(math.Max(float64(p), 1e-12))
		}
	}
	// Value: L_v = (v - z)^2 with v = tanh(u) => dL/du = 2(v-z)(1-v^2),
	// written over u.
	diff := value - s.Value
	valueLoss = diff * diff
	f.vOut[0] = float32(2 * diff * (1 - value*value))

	// ---- value head: FC, ReLU, FC, ReLU, 1x1 conv ----
	vAct, trunk := f.convAct[4], f.convAct[2]
	tensor.DenseBackward(ws.dVHide, g.Val2W.Data, g.Val2B.Data, f.vOut, f.vHide, net.Val2W.Data, 1, cfg.ValueHide, 1)
	reluBack(ws.dVHide, f.vHide)
	tensor.DenseBackward(ws.dVAct, g.Val1W.Data, g.Val1B.Data, ws.dVHide, vAct, net.Val1W.Data, 1, hw*cfg.ValueC, cfg.ValueHide)
	reluBack(ws.dVAct, vAct)
	tensor.DenseBackward(ws.dTrunk[2], g.ConvW[4].Data, g.ConvB[4].Data, ws.dVAct, trunk, net.ConvW[4].Data, hw, c3, cfg.ValueC)

	// ---- policy head: FC, ReLU, 1x1 conv ----
	pAct := f.convAct[3]
	tensor.DenseBackward(ws.dPolAct, g.PolW.Data, g.PolB.Data, ws.dLogits, pAct, net.PolW.Data, 1, hw*cfg.PolicyC, cfg.NumActions)
	reluBack(ws.dPolAct, pAct)
	tensor.DenseBackward(ws.dHead, g.ConvW[3].Data, g.ConvB[3].Data, ws.dPolAct, trunk, net.ConvW[3].Data, hw, c3, cfg.PolicyC)

	// ---- trunk: the heads' gradients summed, then three 3x3 convs ----
	for i, d := range ws.dHead {
		ws.dTrunk[2][i] += d
	}
	for layer := 2; layer >= 0; layer-- {
		sh := f.shapes[layer]
		reluBack(ws.dTrunk[layer], f.convAct[layer])
		// Recompute this conv's im2col from its forward input (the col
		// buffer holds whichever gather ran last).
		fwdIn, dIn, dCol := f.xIn, []float32(nil), []float32(nil)
		if layer > 0 {
			fwdIn, dIn, dCol = f.convAct[layer-1], ws.dTrunk[layer-1], ws.dCol
		}
		tensor.Im2Col(f.col, fwdIn, sh)
		tensor.Conv2DBackward(dIn, g.ConvW[layer].Data, g.ConvB[layer].Data,
			ws.dTrunk[layer], net.ConvW[layer].Data, f.col, dCol, sh)
	}
	return valueLoss, policyLoss
}

// reluBack zeroes the gradient d wherever the ReLU's output act is not
// positive.
func reluBack(d, act []float32) {
	for i, a := range act[:len(d)] {
		if a <= 0 {
			d[i] = 0
		}
	}
}

// SGD is a momentum SGD optimizer with decoupled L2 weight decay (this is
// the c||theta||^2 term of Equation 2).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    *Network
}

// NewSGD creates an optimizer with the given hyper-parameters.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update: v = mu*v + (g + wd*theta); theta -= lr*v.
// Gradients should already be averaged over the batch.
func (o *SGD) Step(net, g *Network) {
	if o.velocity == nil {
		o.velocity = NewGradients(net)
	}
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)

	grads, vels := g.params(), o.velocity.params()
	for i, pp := range net.params() {
		p, gr, v := (*pp).Data, (*grads[i]).Data, (*vels[i]).Data
		for j := range p {
			upd := gr[j] + wd*p[j]
			v[j] = mu*v[j] + upd
			p[j] -= lr * v[j]
		}
	}
}

// BatchResult reports the loss decomposition of one training batch.
type BatchResult struct {
	ValueLoss  float64 // mean (v - z)^2
	PolicyLoss float64 // mean -pi.log p
	L2         float64 // c * ||theta||^2 at the time of the step
	N          int
}

// TotalLoss is Equation 2 evaluated on the batch: value + policy + L2.
func (r BatchResult) TotalLoss() float64 { return r.ValueLoss + r.PolicyLoss + r.L2 }

// TrainBatch runs forward/backward over the samples in parallel (one
// goroutine per core, each with a private Workspace and a shard of
// gradients, every layer's backward one tensor.DenseBackward on its core),
// averages the gradients, and applies one SGD step. It mirrors the paper's
// CPU-training configuration where a fixed pool of threads performs SGD
// (Section 5.4). workers <= 0 selects GOMAXPROCS.
func TrainBatch(net *Network, opt *SGD, batch []Sample, workers int) BatchResult {
	if len(batch) == 0 {
		return BatchResult{}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type shard struct {
		g            *Network
		vLoss, pLoss float64
	}
	chunk := (len(batch) + workers - 1) / workers
	workers = (len(batch) + chunk - 1) / chunk // none without a sample
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(batch))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ws := NewWorkspace(net)
			g := NewGradients(net)
			var vl, pl float64
			for _, s := range batch[lo:hi] {
				v, p := net.BackwardSample(ws, g, s)
				vl += v
				pl += p
			}
			shards[w] = shard{g: g, vLoss: vl, pLoss: pl}
		}(w, lo, hi)
	}
	wg.Wait()

	total := shards[0].g
	res := BatchResult{ValueLoss: shards[0].vLoss, PolicyLoss: shards[0].pLoss, N: len(batch)}
	for _, sh := range shards[1:] {
		total.Add(sh.g)
		res.ValueLoss += sh.vLoss
		res.PolicyLoss += sh.pLoss
	}
	scale := float32(1.0 / float64(len(batch)))
	total.visitParams(func(t *tensor.Tensor) { t.Scale(scale) })
	opt.Step(net, total)
	res.ValueLoss /= float64(len(batch))
	res.PolicyLoss /= float64(len(batch))
	res.L2 = opt.WeightDecay * net.L2Norm()
	return res
}
