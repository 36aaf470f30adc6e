package tensor

import "sync"

// parallelThreshold is the minimum number of multiply-accumulate operations
// below which a kernel runs single-threaded on the caller. Dispatching pool
// work for tiny matrices (e.g. the value head's 64x1 product) costs more
// than it saves.
const parallelThreshold = 1 << 16

// Cache-blocking tile sizes. A 64x64 float32 C tile (16 KiB) plus a 64x512
// panel of each operand fits comfortably in L2 while the 512-wide K panel
// keeps the register tile's four streamed rows (8 KiB) inside L1 between
// reuses. K blocks are deliberately wide: every extra K block costs another
// read-accumulate pass over the C tile and another round of sub-register-
// tile kernel calls, which showed up as real overhead for the network's
// k=324 im2col products when blockK was 256.
const (
	blockM = 64
	blockN = 64
	blockK = 512
)

// MatMul computes C = A * B for row-major matrices A (m x k) and B (k x n),
// writing into C (m x n). C must not alias A or B. It transposes B into
// pooled scratch and runs MatMulTransB, the one GEMM the network runs, so it
// allocates nothing in steady state.
func MatMul(c, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: MatMul buffer too small")
	}
	bt := scratchPool.Get().(*[]float32)
	if cap(*bt) < k*n {
		*bt = make([]float32, k*n)
	}
	t := (*bt)[:k*n]
	for p := 0; p < k; p++ {
		for j, v := range b[p*n : (p+1)*n] {
			t[j*k+p] = v
		}
	}
	MatMulTransB(c, a, t, m, k, n)
	scratchPool.Put(bt)
}

// MatMulTransB computes C = A * B^T for A (m x k) and B (n x k), writing C
// (m x n). This is the natural layout for dense-layer forward passes where
// weights are stored (out, in), and — via im2col — for every convolution in
// the network, so it is the hottest kernel in the codebase.
func MatMulTransB(c, a, b []float32, m, k, n int) {
	if len(c) < m*n {
		panic("tensor: MatMulTransB buffer too small")
	}
	matMulTransBInto(c, n, 0, a, b, m, k, n)
}

// matMulTransBInto computes A * B^T for A (m x k) and B (n x k) into columns
// [off, off+n) of C, whose rows are ldc apart. Conv2DForwardBatch calls it
// once per sample, each with that sample's patch matrix as B and its pixel
// columns of the batch-major output as the destination: the column blocking
// starts at the sample, so a batched convolution equals the single-sample
// one bit for bit.
func matMulTransBInto(c []float32, ldc, off int, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || (m > 0 && len(c) < (m-1)*ldc+off+n) {
		panic("tensor: MatMulTransB buffer too small")
	}
	if m*k*n < parallelThreshold || m <= blockM {
		// One row block (or too little work to share): no task, no closure,
		// nothing allocated.
		matMulTransBRange(c, ldc, off, a, b, 0, m, k, n)
		return
	}
	t := transBTasks.Get().(*transBTask)
	*t = transBTask{c: c, a: a, b: b, ldc: ldc, off: off, m: m, k: k, n: n}
	parallelBlocks((m+blockM-1)/blockM, t)
	*t = transBTask{}
	transBTasks.Put(t)
}

// transBTask is one parallel matMulTransBInto launch, split by row block. It
// is pooled because the pool workers it is handed to make it escape.
type transBTask struct {
	c, a, b           []float32
	ldc, off, m, k, n int
}

var transBTasks = sync.Pool{New: func() any { return new(transBTask) }}

func (t *transBTask) block(bi int) {
	lo := bi * blockM
	matMulTransBRange(t.c, t.ldc, t.off, t.a, t.b, lo, min(lo+blockM, t.m), t.k, t.n)
}

// matMulTransBRange computes rows [lo, hi) of A * B^T into columns
// [off, off+n) of C (row stride ldc), tiled over (n, k) blocks.
//
// Where the kernel class has a register tile (dotTile), whole groups of
// tileGroup columns of a block go through it: three rows of A against
// tileCols rows of B at a time, so each loaded vector feeds several
// accumulators, the 8 KiB B tile staying in L1 while the A rows stream past
// it. The remaining columns go through dot4, four per pass over one A row,
// and the last n%4 through sequential scalar sums.
//
// The accumulation order of a C element therefore depends on its column's
// index in B and on nothing else — not on its row, not on lo/hi, not on
// where in C the product lands: 8-lane FMA accumulation over each K block in
// order, the horizontal sum, the scalar K tail, blocks summed in order (tile
// columns); dot4's two-chain partial sums (dot4 columns); one sequential sum
// (tail columns).
func matMulTransBRange(c []float32, ldc, off int, a, b []float32, lo, hi, k, n int) {
	if k == 0 {
		// The p-block loop below would never run its first-block
		// initialising pass; keep the C = 0 contract explicit.
		for i := lo; i < hi; i++ {
			clear(c[i*ldc+off : i*ldc+off+n])
		}
		return
	}
	for j0 := 0; j0 < n; j0 += blockN {
		j1 := min(j0+blockN, n)
		jt := j0 // end of the tiled columns
		if dotTile != nil {
			jt += (j1 - j0) &^ (tileGroup - 1)
		}
		j4 := jt + (j1-jt)&^3 // end of the dot4 columns
		for p0 := 0; p0 < k; p0 += blockK {
			p1 := min(p0+blockK, k)
			first := p0 == 0
			for j := j0; j < jt; j += tileCols {
				dotTile(c[lo*ldc+off+j:], ldc, a[lo*k+p0:], k, hi-lo, b[j*k+p0:], k, p1-p0, !first)
			}
			for i := lo; i < hi && jt < j4; i++ {
				ai := a[i*k+p0 : i*k+p1]
				ci := c[i*ldc+off:][:n]
				for j := jt; j < j4; j += 4 {
					b0 := b[j*k+p0 : j*k+p1]
					b1 := b[(j+1)*k+p0 : (j+1)*k+p1]
					b2 := b[(j+2)*k+p0 : (j+2)*k+p1]
					b3 := b[(j+3)*k+p0 : (j+3)*k+p1]
					s0, s1, s2, s3 := dot4(ai, b0, b1, b2, b3)
					if first {
						ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
					} else {
						ci[j] += s0
						ci[j+1] += s1
						ci[j+2] += s2
						ci[j+3] += s3
					}
				}
			}
			for j := j4; j < j1; j++ {
				dotSeq(c[lo*ldc+off+j:], ldc, a[lo*k+p0:], k, hi-lo, b[j*k+p0:j*k+p1], !first)
			}
		}
	}
}

// AddBiasRows adds bias (length n) to every row of the (rows x n) matrix m.
func AddBiasRows(m, bias []float32, rows, n int) {
	if len(bias) < n || len(m) < rows*n {
		panic("tensor: AddBiasRows buffer too small")
	}
	for r := 0; r < rows; r++ {
		row := m[r*n : (r+1)*n]
		for j := range row {
			row[j] += bias[j]
		}
	}
}
