package tensor

import "math"

// negZeros is the bias of a GEMM without one: adding -0 changes no float,
// not even -0.
var negZeros = func() (z [64]float32) {
	for i := range z {
		z[i] = float32(math.Copysign(0, -1))
	}
	return
}()

// MatMul computes C = A·B for row-major matrices A (m x k) and B (k x n),
// writing into C (m x n). C must not alias A or B. It is Dense without a
// bias or a ReLU.
func MatMul(c, a, b []float32, m, k, n int) {
	Dense(c, a, b, nil, m, k, n, false)
}

// Dense computes C = A·B + bias, then max(C, 0) elementwise when relu is
// set, for row-major A (m x k), B (k x n) and C (m x n), bias of length n or
// nil. C must not alias A or B. It is the one GEMM the network runs: every
// convolution (on its patch matrix) and every fully-connected layer.
//
// Every element of C is one fp32 FMA chain over k in order, from +0 —
// c = fma(a[i][p], b[p][j], c), rounded once per step — then one rounded
// add of its bias, then the ReLU. That holds in every kernel class, at every
// row and column block boundary, so the classes agree bit for bit and an
// output does not depend on the other rows in the call: a sample's outputs
// are the same in any batch. Dense runs every row on its caller and
// allocates nothing.
//
// Blocking. Dense runs the class's widest tile down column blocks of
// tileCols, each over all m rows and the whole of k in one pass. K blocks of
// 64 (a 16 KiB panel of B held in L1) made the trunk GEMMs 10-15 % slower on
// the reference host, for the extra loads and stores of C (EXPERIMENTS.md),
// and would give the same bits.
func Dense(c, a, b, bias []float32, m, k, n int, relu bool) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n || (bias != nil && len(bias) < n) {
		panic("tensor: Dense buffer too small")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		// Every chain is empty: C is +0 plus the bias, through the ReLU.
		for i := 0; i < m; i++ {
			row := c[i*n : (i+1)*n]
			clear(row)
			for j := range row {
				if bias != nil {
					row[j] += bias[j]
				}
				if relu && row[j] < 0 {
					row[j] = 0
				}
			}
		}
		return
	}
	floor := float32(math.Inf(-1))
	if relu {
		floor = 0
	}
	for j0 := 0; j0 < n; j0 += tileCols {
		bs := negZeros[:]
		if bias != nil {
			bs = bias[j0:]
		}
		tile(c[j0:], n, a, k, b[j0:], n, m, min(tileCols, n-j0), k, bs, floor)
	}
}
