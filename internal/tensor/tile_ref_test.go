package tensor

import (
	"math"
	"math/big"
)

// The single-row 1x8 AVX2 dot tile that tile3x4Kernel replaced, kept in pure
// Go as the bitwise reference: refMatMulTransB is the blocked GEMM as it was
// with that tile (one A row against eight B rows per call), refDotTile8 the
// tile itself. The 3x4 tile must produce the same bits on every element the
// 1x8 tile produced, which is what makes the kernel rewrite invisible to
// every golden trajectory in the repository.

// fma32 is a*b + c with one rounding, as VFMADD231PS computes each lane. The
// sum is formed exactly in big.Float (a 48-bit product plus a 24-bit addend
// at any exponent distance fits in 512 bits) and rounded to float32 once;
// going through float64 would round twice.
func fma32(a, b, c float32) float32 {
	if a == 0 || b == 0 || isNonFinite(a) || isNonFinite(b) || isNonFinite(c) {
		// Zeros and non-finite values have no exact big.Float form that
		// keeps their sign rules; float64 arithmetic gets them right and
		// cannot double-round, because nothing is rounded.
		return float32(math.FMA(float64(a), float64(b), float64(c)))
	}
	x := new(big.Float).SetPrec(512).SetFloat64(float64(a))
	x.Mul(x, new(big.Float).SetPrec(512).SetFloat64(float64(b)))
	x.Add(x, new(big.Float).SetPrec(512).SetFloat64(float64(c)))
	if x.Sign() == 0 {
		// An exact cancellation: IEEE gives +0 in round-to-nearest unless
		// both addends are -0, which the zero check above already took.
		return 0
	}
	f, _ := x.Float32()
	return f
}

func isNonFinite(x float32) bool {
	return math.IsNaN(float64(x)) || math.IsInf(float64(x), 0)
}

// refDotTile8 is dot8x8Kernel plus its Go wrapper: eight 8-lane FMA chains
// over the multiple-of-8 prefix, each reduced as the HSUM macro reduces
// (high half onto low half, then lanes 0+2 and 1+3, then those two), then
// the scalar tail: each product rounded, then added (the conversion forbids
// fusing the two, whatever GOAMD64 level the test is built at).
func refDotTile8(a, b []float32, stride int) (out [8]float32) {
	n8 := len(a) &^ 7
	for j := range out {
		var lane [8]float32
		for p := 0; p < n8; p += 8 {
			for l := range lane {
				lane[l] = fma32(a[p+l], b[j*stride+p+l], lane[l])
			}
		}
		x0, x1, x2, x3 := lane[0]+lane[4], lane[1]+lane[5], lane[2]+lane[6], lane[3]+lane[7]
		out[j] = (x0 + x2) + (x1 + x3)
	}
	for p := n8; p < len(a); p++ {
		av := a[p]
		for r := 0; r < 8; r++ {
			out[r] += float32(av * b[r*stride+p])
		}
	}
	return
}

// refMatMulTransB is MatMulTransB as it was before the register tile:
// 64-column blocks, 512-wide K blocks summed in order, and per A row the 1x8
// tile while eight columns remain in the block (when the kernel class has a
// tile), then dot4, then the sequential scalar tail.
func refMatMulTransB(c, a, b []float32, m, k, n int, tile bool) {
	for x := range c[:m*n] {
		c[x] = 0
	}
	for j0 := 0; j0 < n; j0 += blockN {
		j1 := min(j0+blockN, n)
		for p0 := 0; p0 < k; p0 += blockK {
			p1 := min(p0+blockK, k)
			first := p0 == 0
			for i := 0; i < m; i++ {
				ai := a[i*k+p0 : i*k+p1]
				ci := c[i*n : (i+1)*n]
				j := j0
				if tile {
					for ; j+8 <= j1; j += 8 {
						out := refDotTile8(ai, b[j*k+p0:], k)
						for x := range out {
							if first {
								ci[j+x] = out[x]
							} else {
								ci[j+x] += out[x]
							}
						}
					}
				}
				for ; j+4 <= j1; j += 4 {
					s0, s1, s2, s3 := dot4(ai, b[j*k+p0:j*k+p1], b[(j+1)*k+p0:(j+1)*k+p1], b[(j+2)*k+p0:(j+2)*k+p1], b[(j+3)*k+p0:(j+3)*k+p1])
					if first {
						ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
					} else {
						ci[j] += s0
						ci[j+1] += s1
						ci[j+2] += s2
						ci[j+3] += s3
					}
				}
				for ; j < j1; j++ {
					bj := b[j*k+p0 : j*k+p1]
					var sum float32
					for p, av := range ai {
						sum += av * bj[p]
					}
					if first {
						ci[j] = sum
					} else {
						ci[j] += sum
					}
				}
			}
		}
	}
}
