package tensor

// Quantized int8 GEMM. MatMulTransBQ8 is the serving-path counterpart of
// MatMulTransB: activations and weights are symmetric int8 quantizations
// (q = round(x/scale), no zero point), products accumulate exactly in
// int32, and the caller dequantizes with scaleA*scaleB[row]. Exact integer
// accumulation means every kernel implementation (generic Go, AVX2) must
// agree bitwise — the equivalence tests pin that, unlike the fp32 kernels'
// rounding-tolerance agreement.

// MatMulTransBQ8 computes C = A * B^T for int8 A (m x k) and B (n x k),
// writing int32 C (m x n). C must not alias A or B. Large products are
// parallelised across row blocks on the persistent worker pool.
func MatMulTransBQ8(c []int32, a, b []int8, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: MatMulTransBQ8 buffer too small")
	}
	if m*k*n < parallelThreshold || m == 1 {
		matMulTransBQ8Range(c, a, b, 0, m, k, n)
		return
	}
	blocks := (m + blockM - 1) / blockM
	parallelBlocks(blocks, blockFunc(func(bi int) {
		lo := bi * blockM
		matMulTransBQ8Range(c, a, b, lo, min(lo+blockM, m), k, n)
	}))
}

// matMulTransBQ8Range computes rows [lo, hi) of C = A*B^T with the same
// 4-column register tile as the fp32 path. int8 rows are 4x denser than
// fp32 (a 1152-tap im2col row is 1.1 KiB), so the whole 4-row B tile stays
// in L1 without the fp32 path's explicit k-blocking.
func matMulTransBQ8Range(c []int32, a, b []int8, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		j := 0
		if dotQ8Tile8 != nil {
			for ; j+8 <= n; j += 8 {
				out := dotQ8Tile8(ai, b[j*k:], k)
				copy(ci[j:j+8], out[:])
			}
		}
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			ci[j], ci[j+1], ci[j+2], ci[j+3] = dotQ8(ai, b0, b1, b2, b3)
		}
		for ; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			var sum int32
			for p, av := range ai {
				sum += int32(av) * int32(bj[p])
			}
			ci[j] = sum
		}
	}
}

// QuantizeSymmetric quantizes src into int8 dst with the symmetric scale:
// dst[i] = clamp(round(src[i]/scale), -127, 127). A scale <= 0 zeroes dst
// (an all-zero tensor has no meaningful scale).
func QuantizeSymmetric(dst []int8, src []float32, scale float32) {
	if len(dst) < len(src) {
		panic("tensor: QuantizeSymmetric dst too small")
	}
	if scale <= 0 {
		for i := range src {
			dst[i] = 0
		}
		return
	}
	inv := 1 / scale
	for i, v := range src {
		q := v * inv
		// round-half-away-from-zero without math.Round's call overhead
		if q >= 0 {
			q += 0.5
		} else {
			q -= 0.5
		}
		n := int32(q)
		if n > 127 {
			n = 127
		} else if n < -127 {
			n = -127
		}
		dst[i] = int8(n)
	}
}

// MaxAbs returns the largest absolute value in x (0 for empty x).
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}
