package tensor

import "math"

// The bit models of the register tiles, in pure Go. refDotTile8 is the
// single-row 1x8 AVX2 dot tile that tile3x4Kernel replaced: the 3x4 tile must
// produce the same bits on every element the 1x8 tile produced, which is
// what makes that kernel rewrite invisible to every golden trajectory in the
// repository. refDotTile16 is the avx512 class's tile3x8Kernel.
// refMatMulTransB is the blocked GEMM around either (one A row against eight
// B rows per call).

// refTile is the bit model of each kernel class's dotTile; generic has none.
var refTile = map[string]func(a, b []float32, stride int) [8]float32{
	KernelAVX2:   refDotTile8,
	KernelAVX512: refDotTile16,
}

// fma32 is a*b + c with one rounding, as VFMADD231PS computes each lane.
// Rounding a*b + c to float64 and then to float32 would round twice, so the
// float64 sum is rounded to odd instead: the 48-bit product is exact in
// float64, TwoSum gives the sum's exact error, and an inexact sum with an
// even last bit moves one ulp toward the exact value. A round-to-odd result
// with at least two more bits than float32 rounds to float32 as the exact
// sum would; checked bit for bit against an exact 512-bit big.Float sum on
// five million inputs, subnormals and cancellations included.
func fma32(a, b, c float32) float32 {
	if a == 0 || b == 0 || isNonFinite(a) || isNonFinite(b) || isNonFinite(c) {
		// Zeros and non-finite values: float64 arithmetic gets their sign
		// rules right and cannot double-round, because nothing is rounded.
		return float32(math.FMA(float64(a), float64(b), float64(c)))
	}
	p, q := float64(a)*float64(b), float64(c)
	s := p + q
	v := s - p
	if t := (p - (s - v)) + (q - v); t != 0 && math.Float64bits(s)&1 == 0 {
		s = math.Nextafter(s, math.Copysign(math.Inf(1), t))
	}
	return float32(s)
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

// refDotTile16 is tile3x8Kernel for one row of A: sixteen FMA chains over
// the elements in order, the last step taking the n%16 elements left with
// zeros in the lanes past n (so those lanes add 0*0, which turns a -0 into
// +0 as the hardware does), then each column's lanes summed by the halving
// tree — lanes i and i+8, then i and i+4, i+2, i+1. No scalar tail.
func refDotTile16(a, b []float32, stride int) (out [8]float32) {
	for j := range out {
		var lane [16]float32
		for p := 0; p < len(a); p += 16 {
			for l := range lane {
				var av, bv float32
				if p+l < len(a) {
					av, bv = a[p+l], b[j*stride+p+l]
				}
				lane[l] = fma32(av, bv, lane[l])
			}
		}
		h := lane[:]
		for len(h) > 1 {
			half := len(h) / 2
			for i := range h[:half] {
				h[i] += h[i+half]
			}
			h = h[:half]
		}
		out[j] = h[0]
	}
	return
}

// refMatMulTransB is MatMulTransB on the bit model tile of a kernel class:
// 64-column blocks, 512-wide K blocks summed in order, and per A row the
// tile while eight columns remain in the block (when the kernel class has
// one, tile != nil), then dot4, then the sequential scalar tail.
func refMatMulTransB(c, a, b []float32, m, k, n int, tile func(a, b []float32, stride int) [8]float32) {
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
				if tile != nil {
					for ; j+8 <= j1; j += 8 {
						out := tile(ai, b[j*k+p0:], k)
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
