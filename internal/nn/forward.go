package nn

import (
	"math"

	"github.com/parmcts/parmcts/internal/tensor"
)

// Workspace holds every intermediate buffer one forward (and optionally
// backward) pass needs. Workspaces let many goroutines run inference on the
// same immutable Network concurrently with zero allocation per call: each
// inference worker owns one Workspace, mirroring how each CPU thread in the
// shared-tree scheme evaluates its own leaf.
type Workspace struct {
	cfg    Config
	shapes [5]tensor.Conv2DShape

	// forward activations (pre- and post-ReLU kept for backward)
	convPre  [5][]float32
	convAct  [5][]float32
	col      [5][]float32 // im2col scratch per conv
	pLogits  []float32
	policy   []float32
	vHidePre []float32
	vHideAct []float32
	vOutPre  []float32 // length 1 (pre-tanh)

	// lastInput records the input slice of the most recent Forward call so
	// the first trunk convolution's backward pass can rebuild its im2col.
	lastInput []float32

	// backward scratch (allocated lazily by newGradScratch)
	back *backScratch
}

// NewWorkspace allocates a workspace for net's configuration.
func NewWorkspace(net *Network) *Workspace {
	cfg := net.Cfg
	ws := &Workspace{cfg: cfg, shapes: cfg.convShapes()}
	for i, s := range ws.shapes {
		ws.convPre[i] = make([]float32, s.OutC*s.OutH()*s.OutW())
		ws.convAct[i] = make([]float32, s.OutC*s.OutH()*s.OutW())
		ws.col[i] = make([]float32, s.ColRows()*s.ColCols())
	}
	ws.pLogits = make([]float32, cfg.NumActions)
	ws.policy = make([]float32, cfg.NumActions)
	ws.vHidePre = make([]float32, cfg.ValueHide)
	ws.vHideAct = make([]float32, cfg.ValueHide)
	ws.vOutPre = make([]float32, 1)
	return ws
}

// Forward runs one sample through the network. input must have length
// net.InputLen(). The returned policy slice is owned by the workspace and is
// overwritten by the next call; callers that retain it must copy.
// value is in [-1, 1] from the perspective encoded in the input planes.
//
// Forward is the batch-size-1 special case of ForwardBatch: it runs the
// identical tensor kernels (im2col + MatMulTransB convolutions, GEMM dense
// heads), merely retaining the pre-activation buffers BackwardSample needs.
// Its outputs are ForwardBatch's bit for bit (TestForwardBatchMatchesForward)
// and are themselves pinned per kernel class by TestForwardGolden.
func (net *Network) Forward(ws *Workspace, input []float32) (policy []float32, value float64) {
	if len(input) != net.InputLen() {
		panic("nn: Forward input length mismatch")
	}
	ws.lastInput = input
	cur := input
	// Three 3x3 trunk convolutions with ReLU.
	for i := 0; i < 3; i++ {
		s := ws.shapes[i]
		tensor.Conv2DForward(ws.convPre[i], cur, net.ConvW[i].Data, net.ConvB[i].Data, ws.col[i], s)
		relu(ws.convAct[i], ws.convPre[i])
		cur = ws.convAct[i]
	}
	trunkOut := cur

	// Policy head: 1x1 conv + ReLU + FC + softmax.
	sp := ws.shapes[3]
	tensor.Conv2DForward(ws.convPre[3], trunkOut, net.ConvW[3].Data, net.ConvB[3].Data, ws.col[3], sp)
	relu(ws.convAct[3], ws.convPre[3])
	denseForward(ws.pLogits, net.PolW.Data, net.PolB.Data, ws.convAct[3])
	softmax(ws.policy, ws.pLogits)

	// Value head: 1x1 conv + ReLU + FC + ReLU + FC + tanh.
	sv := ws.shapes[4]
	tensor.Conv2DForward(ws.convPre[4], trunkOut, net.ConvW[4].Data, net.ConvB[4].Data, ws.col[4], sv)
	relu(ws.convAct[4], ws.convPre[4])
	denseForward(ws.vHidePre, net.Val1W.Data, net.Val1B.Data, ws.convAct[4])
	relu(ws.vHideAct, ws.vHidePre)
	denseForward(ws.vOutPre, net.Val2W.Data, net.Val2B.Data, ws.vHideAct)
	value = math.Tanh(float64(ws.vOutPre[0]))
	return ws.policy, value
}

// denseForward computes out = W*in + b for W stored (len(out) x len(in)) —
// the single-row slice of the batched GEMM head (out = in * W^T + b).
func denseForward(out, w, b, in []float32) {
	tensor.MatMulTransB(out, in, w, 1, len(in), len(out))
	for o := range out {
		out[o] += b[o]
	}
}

func relu(dst, src []float32) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
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
