package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDotKernels feeds arbitrary float inputs (including NaN/Inf bit
// patterns and ragged lengths) through every compiled-in dot kernel,
// requiring that no kernel panics and that all agree with the generic
// reference to rounding tolerance. Non-finite inputs only check for panics:
// NaN/Inf arithmetic is order-sensitive by nature.
func FuzzDotKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add(make([]byte, 5*4*17), uint8(17))
	f.Fuzz(func(t *testing.T, raw []byte, nByte uint8) {
		n := int(nByte)%64 + 1
		need := 5 * 4 * n
		if len(raw) < need {
			padded := make([]byte, need)
			copy(padded, raw)
			raw = padded
		}
		vecs := make([][]float32, 5)
		finite := true
		for v := range vecs {
			vecs[v] = make([]float32, n)
			for i := 0; i < n; i++ {
				bits := binary.LittleEndian.Uint32(raw[(v*n+i)*4:])
				x := math.Float32frombits(bits)
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					finite = false
				}
				vecs[v][i] = x
			}
		}
		a, b0, b1, b2, b3 := vecs[0], vecs[1], vecs[2], vecs[3], vecs[4]

		prev := KernelName()
		defer SetKernel(prev)

		g0, g1, g2, g3 := dot4Generic(a, b0, b1, b2, b3)

		for _, k := range Kernels() {
			if sel, err := SetKernel(k); err != nil || sel != k {
				continue
			}
			s0, s1, s2, s3 := dot4(a, b0, b1, b2, b3)
			if finite {
				// Magnitude-relative tolerance: catastrophic cancellation
				// between huge finite values is accumulation-order
				// sensitive, which is exactly why the bound scales with
				// the largest partial product, not the result.
				var mag float64 = 1
				for i := 0; i < n; i++ {
					for _, bv := range [][]float32{b0, b1, b2, b3} {
						if m := math.Abs(float64(a[i]) * float64(bv[i])); m > mag {
							mag = m
						}
					}
				}
				tol := 1e-4 * mag * float64(n)
				for lane, pair := range [][2]float32{{s0, g0}, {s1, g1}, {s2, g2}, {s3, g3}} {
					got, want := float64(pair[0]), float64(pair[1])
					if math.IsNaN(got) != math.IsNaN(want) {
						continue // overflow to Inf/NaN can differ by order
					}
					if !math.IsInf(got, 0) && !math.IsInf(want, 0) && math.Abs(got-want) > tol {
						t.Errorf("kernel %s n=%d lane %d: got %g want %g (tol %g)", k, n, lane, got, want, tol)
					}
				}
			}
		}
	})
}

// FuzzDotTile feeds arbitrary float inputs through the MatMulTransB register
// tile of every kernel class that has one: a panel of one to seven A rows
// (so a last group of one, two and three rows all occur) against four B
// rows, ragged lengths so the scalar K tail runs, once storing and once
// accumulating into a C wider than the tile. No input may panic or write
// outside the panel's rows and columns; finite inputs must agree with a
// float64 dot product to rounding tolerance; and inputs tame enough that
// nothing overflows or goes subnormal must match the single-row 1x8 tile the
// 3x4 tile replaced (refDotTile8) bit for bit — the property that keeps
// every recorded trajectory unchanged. Arbitrary bit patterns are rarely
// all tame, so the top bit of nByte folds every exponent into [2^-15, 2^16)
// and half the corpus takes the bitwise check.
func FuzzDotTile(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(9), uint8(1))
	f.Add(make([]byte, 7*4*40), uint8(40), uint8(2))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(0x80|21), uint8(6))
	f.Fuzz(func(t *testing.T, raw []byte, nByte, rowByte uint8) {
		n := int(nByte&0x7f)%96 + 1
		rows := int(rowByte)%7 + 1
		if need := (rows + tileCols) * 4 * n; len(raw) < need {
			raw = append(raw, make([]byte, need-len(raw))...)
		}
		vals := make([]float32, (rows+tileCols)*n)
		finite, tame := true, true
		for i := range vals {
			bits := binary.LittleEndian.Uint32(raw[i*4:])
			if nByte&0x80 != 0 && bits<<1 != 0 {
				bits = bits&0x807FFFFF | (112+bits>>23&0xff%32)<<23
			}
			x := math.Float32frombits(bits)
			if isNonFinite(x) {
				finite = false
			}
			if ax := math.Abs(float64(x)); ax != 0 && (ax < 0x1p-30 || ax > 0x1p30) {
				tame = false
			}
			vals[i] = x
		}
		a := vals[:rows*n]
		// Eight B rows, the last four zero, so the 1x8 reference can run on
		// the same memory.
		b := make([]float32, 8*n)
		copy(b, vals[rows*n:])

		prev := KernelName()
		defer SetKernel(prev)
		for _, k := range Kernels() {
			if sel, err := SetKernel(k); err != nil || sel != k || dotTile == nil {
				continue
			}
			// C has a guard column on each side of the tile and a guard row
			// below the panel.
			const ldc, guard = tileCols + 2, -7
			c := make([]float32, (rows+1)*ldc)
			for i := range c {
				c[i] = guard
			}
			dotTile(c[1:], ldc, a, n, rows, b, n, n, false)
			once := append([]float32(nil), c...)
			dotTile(c[1:], ldc, a, n, rows, b, n, n, true)
			for i, v := range once {
				if r, col := i/ldc, i%ldc; (r == rows || col == 0 || col == ldc-1) && (v != guard || c[i] != guard) {
					t.Fatalf("kernel %s n=%d rows=%d: wrote outside the panel at (%d,%d)", k, n, rows, r, col-1)
				}
			}
			if !finite {
				continue
			}
			for r := 0; r < rows; r++ {
				ar := a[r*n : (r+1)*n]
				ref := refDotTile8(ar, b, n)
				for col := 0; col < tileCols; col++ {
					got, twice := once[r*ldc+1+col], c[r*ldc+1+col]
					if tame {
						if math.Float32bits(got) != math.Float32bits(ref[col]) {
							t.Errorf("kernel %s n=%d rows=%d (%d,%d): bits %#x, 1x8 tile %#x", k, n, rows, r, col, math.Float32bits(got), math.Float32bits(ref[col]))
						}
						if want := ref[col] + ref[col]; math.Float32bits(twice) != math.Float32bits(want) {
							t.Errorf("kernel %s n=%d rows=%d (%d,%d): accumulated to %g, want %g", k, n, rows, r, col, twice, want)
						}
						continue
					}
					var want, mag float64 = 0, 1
					for p := 0; p < n; p++ {
						prod := float64(ar[p]) * float64(b[col*n+p])
						want += prod
						mag = math.Max(mag, math.Abs(prod))
					}
					if isNonFinite(got) || math.IsInf(want, 0) {
						continue // overflow to Inf/NaN can differ by order
					}
					if tol := 1e-4 * mag * float64(n); math.Abs(float64(got)-want) > tol {
						t.Errorf("kernel %s n=%d rows=%d (%d,%d): got %g want %g (tol %g)", k, n, rows, r, col, got, want, tol)
					}
				}
			}
		}
	})
}
