// Package tensor implements the dense float32 array operations backing the
// policy/value network: one blocked parallel matrix multiply (MatMulTransB;
// MatMul transposes B and runs it), batched im2col convolution with its
// gradients, and the in-place ReLU.
//
// The package deliberately sticks to plain Go and the standard library. The
// paper offloads DNN inference to CUDA; here the same operator graph runs on
// the CPU (optionally behind the simulated accelerator in internal/accel),
// so what matters is that the operators are correct, as fast as the host
// allows, and have a realistic batch-scaling latency profile.
//
// The inference path is held to the bit. The micro-kernels behind
// MatMulTransB are dispatched per kernel class (dot.go: generic, avx2 and
// avx512 where the host has them); within a class the rounding of an output
// element depends on its column's index in B alone — not on its row, the row
// blocking, the batch it arrives in or where in C the product lands —
// Conv2DForwardBatch gathers and multiplies one sample at a time, and the
// specialised im2col gathers write exactly what the general loop writes in
// every class (TestIm2ColSpecialisedMatchGeneral, FuzzIm2Col). A batched
// convolution therefore equals the single-sample one bit for bit, and a
// kernel may be rewritten for speed as long as
// TestMatMulTransBKernelEquivalence still matches the reference kept in
// tile_ref_test.go. The path allocates nothing: one-block products run on
// the caller with no task, multi-block ones take a pooled job.
package tensor

import "fmt"

// Tensor is a dense row-major float32 array with an explicit shape.
// Layout for 4-D image tensors is NCHW.
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
