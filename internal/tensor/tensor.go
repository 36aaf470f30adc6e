// Package tensor implements the dense float32 array operations backing the
// policy/value network: one blocked GEMM (Dense: C = A·B plus a bias,
// through an optional ReLU; MatMul is it without either) and channels-last
// im2col convolution on it, with its gradients.
//
// The package deliberately sticks to plain Go and the standard library. The
// paper offloads DNN inference to CUDA; here the same operator graph runs on
// the CPU (optionally behind the simulated accelerator in internal/accel),
// so what matters is that the operators are correct, as fast as the host
// allows, and have a realistic batch-scaling latency profile.
//
// The inference path is held to the bit, with one accumulation order. The
// GEMM's register tile is dispatched per kernel class (kernel.go: generic,
// avx2 and avx512 where the host has them), and in every class each output
// element is one fp32 FMA chain over k in order, rounded once per step: a
// broadcast tile keeps rows x vectors of C in registers and per k multiplies
// each row's element of A into one row of B. So the classes agree bit for
// bit (TestElementsAreStandAloneChains, FuzzGEMM), and an output depends on
// neither its row, its column, the blocking nor the batch it arrives in. A
// product runs on its caller's goroutine and allocates nothing: one forward
// pass is one core's work, and the callers (a server's per-core batches,
// the search workers, the training workers) spread forwards across cores.
package tensor

import "fmt"

// Tensor is a dense row-major float32 array with an explicit shape.
// Images are channels-last (see Conv2DShape).
type Tensor struct {
	Data  []float32
	Shape []int
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Data: make([]float32, n), Shape: append([]int(nil), shape...)}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// AXPY computes t += alpha * x elementwise. Shapes must match in length.
func (t *Tensor) AXPY(alpha float32, x *Tensor) {
	if len(t.Data) != len(x.Data) {
		panic("tensor: AXPY length mismatch")
	}
	td, xd := t.Data, x.Data
	for i := range td {
		td[i] += alpha * xd[i]
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// SumSquares returns the squared L2 norm of the data.
func (t *Tensor) SumSquares() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return s
}
