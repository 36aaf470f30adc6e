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

// Gradients accumulates parameter gradients with the same layout as Network.
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
	shapes := net.Cfg.convShapes()
	for i, s := range shapes {
		g.ConvW[i] = tensor.New(s.OutC, s.ColCols())
		g.ConvB[i] = tensor.New(s.OutC)
	}
	hw := net.Cfg.H * net.Cfg.W
	g.PolW = tensor.New(net.Cfg.NumActions, net.Cfg.PolicyC*hw)
	g.PolB = tensor.New(net.Cfg.NumActions)
	g.Val1W = tensor.New(net.Cfg.ValueHide, net.Cfg.ValueC*hw)
	g.Val1B = tensor.New(net.Cfg.ValueHide)
	g.Val2W = tensor.New(1, net.Cfg.ValueHide)
	g.Val2B = tensor.New(1)
	return g
}

// Add accumulates other into g.
func (g *Gradients) Add(other *Gradients) {
	pair := func(a, b *tensor.Tensor) { a.AXPY(1, b) }
	for i := range g.ConvW {
		pair(g.ConvW[i], other.ConvW[i])
		pair(g.ConvB[i], other.ConvB[i])
	}
	pair(g.PolW, other.PolW)
	pair(g.PolB, other.PolB)
	pair(g.Val1W, other.Val1W)
	pair(g.Val1B, other.Val1B)
	pair(g.Val2W, other.Val2W)
	pair(g.Val2B, other.Val2B)
}

func (g *Gradients) visit(f func(*tensor.Tensor)) {
	for i := range g.ConvW {
		f(g.ConvW[i])
		f(g.ConvB[i])
	}
	f(g.PolW)
	f(g.PolB)
	f(g.Val1W)
	f(g.Val1B)
	f(g.Val2W)
	f(g.Val2B)
}

// backScratch holds backward-pass buffers sized for one sample.
type backScratch struct {
	dConvAct  [5][]float32 // gradient w.r.t. conv post-activation
	dConvPre  [5][]float32 // gradient w.r.t. conv pre-activation
	dCol      [5][]float32
	dInput    [5][]float32 // gradient flowing into each conv's input
	dLogits   []float32
	dPolAct   []float32
	dVHide    []float32
	dVAct     []float32
	trunkGrad []float32 // sum of policy-head and value-head trunk gradients
}

func (ws *Workspace) gradScratch() *backScratch {
	if ws.back != nil {
		return ws.back
	}
	b := &backScratch{}
	for i, s := range ws.shapes {
		outLen := s.OutC * s.OutH() * s.OutW()
		b.dConvAct[i] = make([]float32, outLen)
		b.dConvPre[i] = make([]float32, outLen)
		b.dCol[i] = make([]float32, s.ColRows()*s.ColCols())
		b.dInput[i] = make([]float32, s.InC*s.InH*s.InW)
	}
	b.dLogits = make([]float32, ws.cfg.NumActions)
	b.dPolAct = make([]float32, ws.shapes[3].OutC*ws.cfg.H*ws.cfg.W)
	b.dVHide = make([]float32, ws.cfg.ValueHide)
	b.dVAct = make([]float32, ws.shapes[4].OutC*ws.cfg.H*ws.cfg.W)
	b.trunkGrad = make([]float32, ws.shapes[2].OutC*ws.cfg.H*ws.cfg.W)
	ws.back = b
	return b
}

// BackwardSample runs forward+backward for one sample, accumulating
// gradients into g and returning the sample's loss terms:
// valueLoss = (v - z)^2, policyLoss = -pi . log p  (Equation 2 without the
// L2 term, which the optimizer applies as weight decay).
func (net *Network) BackwardSample(ws *Workspace, g *Gradients, s Sample) (valueLoss, policyLoss float64) {
	policy, value := net.Forward(ws, s.Input)
	b := ws.gradScratch()

	// ---- loss gradients at the heads ----
	// Policy: L_p = -sum_a pi_a log p_a with p = softmax(logits)
	// => dL/dlogits = p - pi.
	for i := range b.dLogits {
		b.dLogits[i] = policy[i] - s.Policy[i]
		if s.Policy[i] > 0 {
			policyLoss -= float64(s.Policy[i]) * math.Log(math.Max(float64(policy[i]), 1e-12))
		}
	}
	// Value: L_v = (v - z)^2 with v = tanh(u) => dL/du = 2(v-z)(1-v^2).
	diff := value - s.Value
	valueLoss = diff * diff
	dVOut := float32(2 * diff * (1 - value*value))

	// ---- value head backward ----
	// vOut = Val2W . vHideAct + Val2B
	for i := range b.dVHide {
		b.dVHide[i] = dVOut * net.Val2W.Data[i]
		g.Val2W.Data[i] += dVOut * ws.vHideAct[i]
	}
	g.Val2B.Data[0] += dVOut
	// through hidden ReLU
	for i := range b.dVHide {
		if ws.vHidePre[i] <= 0 {
			b.dVHide[i] = 0
		}
	}
	// vHidePre = Val1W . vAct + Val1B
	denseBackward(b.dVAct, net.Val1W.Data, g.Val1W.Data, g.Val1B.Data, b.dVHide, ws.convAct[4])
	// through value-conv ReLU
	reluBackInto(b.dConvPre[4], b.dVAct, ws.convPre[4])
	// value 1x1 conv backward
	sv := ws.shapes[4]
	tensor.Im2Col(ws.col[4], ws.convAct[2], sv)
	tensor.Conv2DBackward(b.dInput[4], g.ConvW[4].Data, g.ConvB[4].Data,
		b.dConvPre[4], net.ConvW[4].Data, ws.col[4], b.dCol[4], sv)

	// ---- policy head backward ----
	denseBackward(b.dPolAct, net.PolW.Data, g.PolW.Data, g.PolB.Data, b.dLogits, ws.convAct[3])
	reluBackInto(b.dConvPre[3], b.dPolAct, ws.convPre[3])
	sp := ws.shapes[3]
	tensor.Im2Col(ws.col[3], ws.convAct[2], sp)
	tensor.Conv2DBackward(b.dInput[3], g.ConvW[3].Data, g.ConvB[3].Data,
		b.dConvPre[3], net.ConvW[3].Data, ws.col[3], b.dCol[3], sp)

	// ---- trunk backward ----
	for i := range b.trunkGrad {
		b.trunkGrad[i] = b.dInput[3][i] + b.dInput[4][i]
	}
	upstream := b.trunkGrad
	for layer := 2; layer >= 0; layer-- {
		s := ws.shapes[layer]
		reluBackInto(b.dConvPre[layer], upstream, ws.convPre[layer])
		// Recompute this conv's im2col from its forward input (the col
		// buffer was clobbered by later layers during the forward pass).
		var fwdIn []float32
		if layer == 0 {
			fwdIn = ws.lastInput
		} else {
			fwdIn = ws.convAct[layer-1]
		}
		tensor.Im2Col(ws.col[layer], fwdIn, s)
		tensor.Conv2DBackward(b.dInput[layer], g.ConvW[layer].Data, g.ConvB[layer].Data,
			b.dConvPre[layer], net.ConvW[layer].Data, ws.col[layer], b.dCol[layer], s)
		upstream = b.dInput[layer]
	}
	return valueLoss, policyLoss
}

// denseBackward accumulates dW/dB and computes dIn for out = W.in + b:
//
//	dW[o][i] += dOut[o] * in[i]
//	dB[o]    += dOut[o]
//	dIn[i]    = sum_o dOut[o] * W[o][i]
func denseBackward(dIn, w, dW, dB, dOut, in []float32) {
	inLen := len(in)
	for i := range dIn {
		dIn[i] = 0
	}
	for o, g := range dOut {
		dB[o] += g
		if g == 0 {
			continue
		}
		wRow := w[o*inLen : (o+1)*inLen]
		dwRow := dW[o*inLen : (o+1)*inLen]
		for i, v := range in {
			dwRow[i] += g * v
			dIn[i] += g * wRow[i]
		}
	}
}

func reluBackInto(dst, dOut, pre []float32) {
	for i := range dst {
		if pre[i] > 0 {
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
