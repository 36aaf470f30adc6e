package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzGEMM feeds arbitrary shapes and float bit patterns (NaN, Inf,
// subnormals included) through Dense in every kernel class this host runs:
// m up to 20 rows (row tails of a six-row tile), k up to 150, n up to 140
// (column tails of every tile width; the seeds take the heads' 4 and 2
// channels, the 81 actions and the value head's 1 output). Every element must equal its fma32 chain bit for bit —
// a NaN need only be a NaN, as the classes may carry different payloads —
// and the NaN sentinel past C must survive.
func FuzzGEMM(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(7), uint8(9), uint8(81), uint8(1))
	f.Add(make([]byte, 4*(13*70+70*4)), uint8(13), uint8(70), uint8(4), uint8(2))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0xff, 0x7f, 0x80, 0xff}, uint8(5), uint8(128), uint8(2), uint8(3))
	dense := make([]byte, 4*(8*64+64*65))
	for i := range dense {
		dense[i] = byte(i*7 + 3)
	}
	f.Add(dense, uint8(8), uint8(64), uint8(65), uint8(0))
	f.Add(dense, uint8(2), uint8(64), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, mb, kb, nb, flags uint8) {
		m, k, n := int(mb)%20+1, int(kb)%150, int(nb)%140+1
		vals := make([]float32, m*k+k*n+n)
		for i := range vals {
			if 4*i+4 <= len(raw) {
				vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			} else {
				vals[i] = float32(i%13) - 6
			}
		}
		a, b, bias := vals[:m*k], vals[m*k:m*k+k*n], vals[m*k+k*n:]
		if flags&1 == 0 {
			bias = nil
		}
		relu := flags&2 != 0
		want := chainGEMM(a, b, bias, m, k, n, relu)
		defer SetKernel(KernelName())
		for _, kn := range Kernels() {
			SetKernel(kn)
			c := make([]float32, m*n+5)
			for i := range c {
				c[i] = math.Float32frombits(sentinelBits)
			}
			Dense(c[:m*n], a, b, bias, m, k, n, relu)
			for i, v := range c {
				switch {
				case i >= m*n:
					if math.Float32bits(v) != sentinelBits {
						t.Fatalf("kernel %s m=%d k=%d n=%d: wrote %g past C at +%d", kn, m, k, n, v, i-m*n)
					}
				case v != v && want[i] != want[i]:
				case math.Float32bits(v) != math.Float32bits(want[i]):
					t.Fatalf("kernel %s m=%d k=%d n=%d bias=%v relu=%v (%d,%d): bits %#x, chain %#x",
						kn, m, k, n, bias != nil, relu, i/n, i%n, math.Float32bits(v), math.Float32bits(want[i]))
				}
			}
		}
	})
}
