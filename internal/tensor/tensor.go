// Package tensor implements the dense float32 array operations backing the
// policy/value network: blocked parallel matrix multiply, im2col convolution,
// elementwise activations, and their gradients.
//
// The package deliberately sticks to plain Go and the standard library. The
// paper offloads DNN inference to CUDA; here the same operator graph runs on
// the CPU (optionally behind the simulated accelerator in internal/accel),
// so what matters is that the operators are correct, as fast as the host
// allows, and have a realistic batch-scaling latency profile.
//
// The inference path is held to the bit. The micro-kernels behind
// MatMulTransB are dispatched per kernel class (dot.go); within a class the
// rounding of an output element depends on its column's index in B alone —
// not on its row, the row blocking, the batch it arrives in or where in C
// the product lands — Conv2DForwardBatch gathers and multiplies one sample
// at a time, and the specialised im2col gathers write exactly what the
// general loop writes. A batched convolution therefore equals the
// single-sample one bit for bit, and a kernel may be rewritten for speed as
// long as TestMatMulTransBKernelEquivalence still matches the reference kept
// in tile_ref_test.go. The path allocates nothing: one-block products run on
// the caller with no task, multi-block ones take a pooled job.
package tensor

import (
	"fmt"
	"math"
)

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

// FromSlice wraps data with the given shape (no copy). The length of data
// must equal the product of the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape of equal element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Data: t.Data, Shape: append([]int(nil), shape...)}
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index (bounds unchecked beyond
// the flattened offset; intended for tests and debugging, not hot paths).
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
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

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// SumSquares returns the squared L2 norm of the data.
func (t *Tensor) SumSquares() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return s
}

// ReLU applies max(0, x) elementwise, writing into dst (which may alias src).
func ReLU(dst, src *Tensor) {
	if len(dst.Data) != len(src.Data) {
		panic("tensor: ReLU length mismatch")
	}
	for i, v := range src.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// ReLUGrad computes dSrc = dDst * 1[src > 0]. act is the pre-activation
// input that was fed to ReLU.
func ReLUGrad(dSrc, dDst, act *Tensor) {
	if len(dSrc.Data) != len(dDst.Data) || len(dSrc.Data) != len(act.Data) {
		panic("tensor: ReLUGrad length mismatch")
	}
	for i := range dSrc.Data {
		if act.Data[i] > 0 {
			dSrc.Data[i] = dDst.Data[i]
		} else {
			dSrc.Data[i] = 0
		}
	}
}

// Tanh applies the hyperbolic tangent elementwise.
func Tanh(dst, src *Tensor) {
	if len(dst.Data) != len(src.Data) {
		panic("tensor: Tanh length mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] = float32(math.Tanh(float64(v)))
	}
}

// TanhGrad computes dSrc = dDst * (1 - out^2) where out is the tanh output.
func TanhGrad(dSrc, dDst, out *Tensor) {
	if len(dSrc.Data) != len(dDst.Data) || len(dSrc.Data) != len(out.Data) {
		panic("tensor: TanhGrad length mismatch")
	}
	for i := range dSrc.Data {
		o := out.Data[i]
		dSrc.Data[i] = dDst.Data[i] * (1 - o*o)
	}
}

// SoftmaxRows applies a numerically-stable softmax independently to each row
// of an (rows, cols) matrix.
func SoftmaxRows(dst, src *Tensor, rows, cols int) {
	if rows*cols != len(src.Data) || len(dst.Data) != len(src.Data) {
		panic("tensor: SoftmaxRows shape mismatch")
	}
	for r := 0; r < rows; r++ {
		row := src.Data[r*cols : (r+1)*cols]
		out := dst.Data[r*cols : (r+1)*cols]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float32
		for i, v := range row {
			e := float32(math.Exp(float64(v - maxV)))
			out[i] = e
			sum += e
		}
		inv := 1 / sum
		for i := range out {
			out[i] *= inv
		}
	}
}

// LogSoftmaxRows writes log(softmax(row)) for each row.
func LogSoftmaxRows(dst, src *Tensor, rows, cols int) {
	if rows*cols != len(src.Data) || len(dst.Data) != len(src.Data) {
		panic("tensor: LogSoftmaxRows shape mismatch")
	}
	for r := 0; r < rows; r++ {
		row := src.Data[r*cols : (r+1)*cols]
		out := dst.Data[r*cols : (r+1)*cols]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		lse := float32(math.Log(sum)) + maxV
		for i, v := range row {
			out[i] = v - lse
		}
	}
}
