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

// Gradients accumulates parameter gradients with the same layout as Network,
// in memory as well: in x out weights.
type Gradients struct {
	ConvW        [5]*tensor.Tensor
	ConvB        [5]*tensor.Tensor
	PolW, PolB   *tensor.Tensor
	Val1W, Val1B *tensor.Tensor
	Val2W, Val2B *tensor.Tensor
}

// NewGradients allocates zeroed gradients for net.
func NewGradients(net *Network) *Gradients {
	g := &Gradients{}
	ls := net.Cfg.layouts()
	for i, p := range g.params() {
		*p = tensor.New(ls[i].shape()...)
	}
	return g
}

// params returns the gradient fields in Network.params order.
func (g *Gradients) params() []**tensor.Tensor {
	p := make([]**tensor.Tensor, 0, 2*len(g.ConvW)+6)
	for i := range g.ConvW {
		p = append(p, &g.ConvW[i], &g.ConvB[i])
	}
	return append(p, &g.PolW, &g.PolB, &g.Val1W, &g.Val1B, &g.Val2W, &g.Val2B)
}

// Add accumulates other into g.
func (g *Gradients) Add(other *Gradients) {
	o := other.params()
	for i, p := range g.params() {
		(*p).AXPY(1, *o[i])
	}
}

func (g *Gradients) visit(f func(*tensor.Tensor)) {
	for _, p := range g.params() {
		f(*p)
	}
}

// Workspace is one training worker's scratch: a capacity-1 BatchWorkspace,
// on which BackwardSample runs the network's one forward (ForwardBatch at
// b = 1) and whose post-ReLU activations the backward pass reads, plus the
// backward-pass buffers sized for one sample. A workspace is not safe for
// concurrent use.
type Workspace struct {
	fwd *BatchWorkspace

	dConvPre  [5][]float32 // gradient w.r.t. conv pre-activation, pix x OutC
	dCol      [5][]float32
	dInput    [5][]float32 // gradient flowing into each conv's input, channels-last
	dLogits   []float32    // the forward's policy, then the gradient w.r.t. the logits
	dPolAct   []float32
	dVHide    []float32
	dVAct     []float32
	trunkGrad []float32 // sum of policy-head and value-head trunk gradients
}

// NewWorkspace allocates a training workspace for net's configuration.
func NewWorkspace(net *Network) *Workspace {
	ws := &Workspace{fwd: NewBatchWorkspace(net, 1)}
	cfg, shapes := net.Cfg, ws.fwd.shapes
	for i, s := range shapes {
		ws.dConvPre[i] = make([]float32, s.OutC*s.OutH()*s.OutW())
		ws.dCol[i] = make([]float32, s.ColRows()*s.ColCols())
		ws.dInput[i] = make([]float32, s.InC*s.InH*s.InW)
	}
	ws.dLogits = make([]float32, cfg.NumActions)
	ws.dPolAct = make([]float32, shapes[3].OutC*cfg.H*cfg.W)
	ws.dVHide = make([]float32, cfg.ValueHide)
	ws.dVAct = make([]float32, shapes[4].OutC*cfg.H*cfg.W)
	ws.trunkGrad = make([]float32, shapes[2].OutC*cfg.H*cfg.W)
	return ws
}

// BackwardSample runs forward+backward for one sample, accumulating
// gradients into g and returning the sample's loss terms:
// valueLoss = (v - z)^2, policyLoss = -pi . log p  (Equation 2 without the
// L2 term, which the optimizer applies as weight decay).
//
// The backward pass reads the forward's channels-last post-ReLU activations
// (a batch of one is laid out as a single sample) and gates every ReLU on
// act > 0, which holds exactly where the pre-activation was positive.
func (net *Network) BackwardSample(ws *Workspace, g *Gradients, s Sample) (valueLoss, policyLoss float64) {
	f := ws.fwd
	in, pol := [1][]float32{s.Input}, [1][]float32{ws.dLogits}
	var val [1]float64
	net.ForwardBatch(f, in[:], pol[:], val[:])
	value := val[0]

	// ---- loss gradients at the heads ----
	// Policy: L_p = -sum_a pi_a log p_a with p = softmax(logits)
	// => dL/dlogits = p - pi, written over p in place.
	for i, p := range ws.dLogits {
		ws.dLogits[i] = p - s.Policy[i]
		if s.Policy[i] > 0 {
			policyLoss -= float64(s.Policy[i]) * math.Log(math.Max(float64(p), 1e-12))
		}
	}
	// Value: L_v = (v - z)^2 with v = tanh(u) => dL/du = 2(v-z)(1-v^2).
	diff := value - s.Value
	valueLoss = diff * diff
	dVOut := float32(2 * diff * (1 - value*value))

	// ---- value head backward ----
	// vOut = Val2W . vHide + Val2B, vHide post-ReLU
	for i := range ws.dVHide {
		ws.dVHide[i] = dVOut * net.Val2W.Data[i]
		g.Val2W.Data[i] += dVOut * f.vHide[i]
	}
	g.Val2B.Data[0] += dVOut
	// through hidden ReLU
	for i := range ws.dVHide {
		if f.vHide[i] <= 0 {
			ws.dVHide[i] = 0
		}
	}
	// vHide = ReLU(Val1W . vAct + Val1B)
	denseBackward(ws.dVAct, net.Val1W.Data, g.Val1W.Data, g.Val1B.Data, ws.dVHide, f.convAct[4])
	// through value-conv ReLU
	reluBackInto(ws.dConvPre[4], ws.dVAct, f.convAct[4])
	// value 1x1 conv backward: the trunk output is its patch matrix.
	tensor.Conv2DBackward(ws.dInput[4], g.ConvW[4].Data, g.ConvB[4].Data,
		ws.dConvPre[4], net.ConvW[4].Data, f.convAct[2], ws.dCol[4], f.shapes[4])

	// ---- policy head backward ----
	denseBackward(ws.dPolAct, net.PolW.Data, g.PolW.Data, g.PolB.Data, ws.dLogits, f.convAct[3])
	reluBackInto(ws.dConvPre[3], ws.dPolAct, f.convAct[3])
	tensor.Conv2DBackward(ws.dInput[3], g.ConvW[3].Data, g.ConvB[3].Data,
		ws.dConvPre[3], net.ConvW[3].Data, f.convAct[2], ws.dCol[3], f.shapes[3])

	// ---- trunk backward ----
	for i := range ws.trunkGrad {
		ws.trunkGrad[i] = ws.dInput[3][i] + ws.dInput[4][i]
	}
	upstream := ws.trunkGrad
	for layer := 2; layer >= 0; layer-- {
		sh := f.shapes[layer]
		reluBackInto(ws.dConvPre[layer], upstream, f.convAct[layer])
		// Recompute this conv's im2col from its forward input (the col
		// buffer holds whichever gather ran last).
		fwdIn := f.xIn
		if layer > 0 {
			fwdIn = f.convAct[layer-1]
		}
		tensor.Im2Col(f.col, fwdIn, sh)
		tensor.Conv2DBackward(ws.dInput[layer], g.ConvW[layer].Data, g.ConvB[layer].Data,
			ws.dConvPre[layer], net.ConvW[layer].Data, f.col, ws.dCol[layer], sh)
		upstream = ws.dInput[layer]
	}
	return valueLoss, policyLoss
}

// denseBackward accumulates dW/dB and computes dIn for out = in.W + b,
// with W in x out:
//
//	dW[i][o] += in[i] * dOut[o]
//	dB[o]    += dOut[o]
//	dIn[i]    = sum_o dOut[o] * W[i][o]
func denseBackward(dIn, w, dW, dB, dOut, in []float32) {
	nOut := len(dOut)
	for o, g := range dOut {
		dB[o] += g
	}
	for i, v := range in {
		wRow := w[i*nOut : (i+1)*nOut]
		dwRow := dW[i*nOut : (i+1)*nOut]
		var sum float32
		for o, g := range dOut {
			dwRow[o] += g * v
			sum += g * wRow[o]
		}
		dIn[i] = sum
	}
}

func reluBackInto(dst, dOut, act []float32) {
	for i := range dst {
		if act[i] > 0 {
			dst[i] = dOut[i]
		} else {
			dst[i] = 0
		}
	}
}

// SGD is a momentum SGD optimizer with decoupled L2 weight decay (this is
// the c||theta||^2 term of Equation 2).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    *Gradients
}

// NewSGD creates an optimizer with the given hyper-parameters.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update: v = mu*v + (g + wd*theta); theta -= lr*v.
// Gradients should already be averaged over the batch.
func (o *SGD) Step(net *Network, g *Gradients) {
	if o.velocity == nil {
		o.velocity = NewGradients(net)
	}
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)

	var params, grads, vels []*tensor.Tensor
	net.visitParams(func(t *tensor.Tensor) { params = append(params, t) })
	g.visit(func(t *tensor.Tensor) { grads = append(grads, t) })
	o.velocity.visit(func(t *tensor.Tensor) { vels = append(vels, t) })
	for i := range params {
		p, gr, v := params[i].Data, grads[i].Data, vels[i].Data
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
// goroutine per core, each with a private Workspace and Gradients shard),
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
	if workers > len(batch) {
		workers = len(batch)
	}
	type shard struct {
		g            *Gradients
		vLoss, pLoss float64
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	chunk := (len(batch) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(batch) {
			break
		}
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
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
		if sh.g == nil {
			continue
		}
		total.Add(sh.g)
		res.ValueLoss += sh.vLoss
		res.PolicyLoss += sh.pLoss
	}
	scale := float32(1.0 / float64(len(batch)))
	total.visit(func(t *tensor.Tensor) { t.Scale(scale) })
	opt.Step(net, total)
	res.ValueLoss /= float64(len(batch))
	res.PolicyLoss /= float64(len(batch))
	res.L2 = opt.WeightDecay * net.L2Norm()
	return res
}
