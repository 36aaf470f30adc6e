package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// gatherCase is one random im2col problem: a sample embedded at base inside
// a larger activation buffer whose channel planes are planeStride apart.
type gatherCase struct {
	InC, InH, InW     int
	Base, PlaneStride int
}

// Generate implements quick.Generator: boards up to 19x19 (the padded
// scratch must follow the shape, not a constant), channel counts on both
// sides of the 1x1 gather's 8-channel block.
func (gatherCase) Generate(r *rand.Rand, _ int) reflect.Value {
	g := gatherCase{InC: 1 + r.Intn(20), InH: 1 + r.Intn(19), InW: 1 + r.Intn(19), Base: r.Intn(40)}
	g.PlaneStride = g.InH*g.InW + r.Intn(3)*g.InH*g.InW + r.Intn(5)
	return reflect.ValueOf(g)
}

// sentinelBits fills the capacity past a patch matrix: no gather may write
// it. A NaN payload, so a stray write of any float shows.
const sentinelBits = 0x7fc0ffee

// checkGather runs every dispatched gather (3x3/pad-1 and 1x1) of the
// selected kernel class on a random image and compares each patch matrix
// with the general loop's, bit for bit. col has spare capacity holding the
// sentinel, which must survive; the 3x3 gather runs twice on pad, the second
// time after every float of pad's capacity is dirtied, so neither a pad left
// by a larger shape nor one left by this call can leak into the result.
func checkGather(g gatherCase, seed int64, pad *[]float32) error {
	r := rand.New(rand.NewSource(seed))
	img := make([]float32, g.Base+g.InC*g.PlaneStride)
	for i := range img {
		img[i] = float32(r.Intn(255) - 127)
	}
	for _, s := range []Conv2DShape{
		{InC: g.InC, InH: g.InH, InW: g.InW, OutC: 1, KH: 3, KW: 3, PadH: 1, PadW: 1},
		{InC: g.InC, InH: g.InH, InW: g.InW, OutC: 1, KH: 1, KW: 1},
	} {
		n := s.ColRows() * s.ColCols()
		want := make([]float32, n)
		im2colGeneral(want, img, s, g.Base, g.PlaneStride)
		buf := make([]float32, n+17)
		for i := range buf {
			buf[i] = 99 // every element must be written
		}
		for i := n; i < len(buf); i++ {
			buf[i] = math.Float32frombits(sentinelBits)
		}
		for pass := 0; pass < 2; pass++ {
			im2colStrided(buf[:n], img, s, g.Base, g.PlaneStride, pad)
			for i, v := range buf {
				switch {
				case i < n && math.Float32bits(v) != math.Float32bits(want[i]):
					return fmt.Errorf("%s %dx%d %+v pass %d: col[%d] = %g, want %g", KernelName(), s.KH, s.KW, g, pass, i, v, want[i])
				case i >= n && math.Float32bits(v) != sentinelBits:
					return fmt.Errorf("%s %dx%d %+v pass %d: wrote %g past the patch matrix at +%d", KernelName(), s.KH, s.KW, g, pass, v, i-n)
				}
			}
			dirty := (*pad)[:cap(*pad)]
			for i := range dirty {
				dirty[i] = 7
			}
		}
	}
	return nil
}

// gathersAgree is checkGather in every kernel class this host runs, on one
// scratch shared across quick's cases, so a later case finds the pad that
// an earlier, often larger, shape left.
func gathersAgree(g gatherCase, seed int64, pad *[]float32) error {
	defer SetKernel(KernelName())
	for _, k := range Kernels() {
		SetKernel(k)
		if err := checkGather(g, seed, pad); err != nil {
			return err
		}
	}
	return nil
}

// TestIm2ColSpecialisedMatchGeneral is the property that lets the trunk's
// 3x3 gathers (channel-outer Go, and the assembly row kernel) and the heads'
// blocked 1x1 transpose stand in for the general loop: over edge shapes and
// random shapes, bases and plane strides, in every kernel class, they
// produce identical patch matrices and write nothing past them.
func TestIm2ColSpecialisedMatchGeneral(t *testing.T) {
	var pad []float32
	// Widest first, so the small shapes after it run on its dirty scratch;
	// 1x1 and 1xN boards make the last pixel the only pixel or row.
	for _, g := range []gatherCase{
		{InC: 64, InH: 9, InW: 9, Base: 81, PlaneStride: 8 * 81},
		{InC: 1, InH: 1, InW: 1, PlaneStride: 1},
		{InC: 1, InH: 1, InW: 1, Base: 2, PlaneStride: 3},
		{InC: 7, InH: 1, InW: 1, PlaneStride: 1},
		{InC: 1, InH: 1, InW: 13, PlaneStride: 13},
		{InC: 3, InH: 1, InW: 6, Base: 1, PlaneStride: 7},
		{InC: 1, InH: 11, InW: 1, PlaneStride: 11},
		{InC: 9, InH: 5, InW: 1, Base: 5, PlaneStride: 6},
		{InC: 1, InH: 9, InW: 9, PlaneStride: 81},
		{InC: 2, InH: 19, InW: 19, PlaneStride: 361},
	} {
		if err := gathersAgree(g, 1, &pad); err != nil {
			t.Error(err)
		}
	}
	prop := func(g gatherCase, seed int64) bool {
		if err := gathersAgree(g, seed, &pad); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzIm2Col feeds arbitrary shapes (up to 64 channels on boards up to
// 19x19), bases, plane strides and kernel classes through the dispatched
// gathers: each must equal the general loop element for element and leave
// the sentinel past the patch matrix untouched.
func FuzzIm2Col(f *testing.F) {
	f.Add(uint8(63), uint8(8), uint8(8), uint16(81), uint16(7*81), uint8(2), int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), uint16(0), uint16(0), uint8(1), int64(2))
	f.Add(uint8(4), uint8(0), uint8(18), uint16(3), uint16(5), uint8(0), int64(3))
	f.Add(uint8(31), uint8(12), uint8(0), uint16(9), uint16(1), uint8(1), int64(4))
	var pad []float32
	f.Fuzz(func(t *testing.T, inC, inH, inW uint8, base, extra uint16, class uint8, seed int64) {
		g := gatherCase{InC: int(inC)%64 + 1, InH: int(inH)%19 + 1, InW: int(inW)%19 + 1, Base: int(base) % 400}
		g.PlaneStride = g.InH*g.InW + int(extra)%(2*g.InH*g.InW+1)
		ks := Kernels()
		defer SetKernel(KernelName())
		SetKernel(ks[int(class)%len(ks)])
		if err := checkGather(g, seed, &pad); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIm2ColExportedUseSpecialised: the exported entry point reaches the same
// result through the pooled scratch, on a 19x19 board after a 3x3 one (the
// pooled buffer must grow).
func TestIm2ColExportedUseSpecialised(t *testing.T) {
	for _, hw := range []int{3, 19, 5} {
		g := gatherCase{InC: 9, InH: hw, InW: hw, PlaneStride: hw * hw}
		s := Conv2DShape{InC: g.InC, InH: hw, InW: hw, OutC: 1, KH: 3, KW: 3, PadH: 1, PadW: 1}
		img := make([]float32, g.Base+g.InC*g.PlaneStride)
		for i := range img {
			img[i] = float32(i%17) - 8
		}
		want := make([]float32, s.ColRows()*s.ColCols())
		im2colGeneral(want, img, s, g.Base, g.PlaneStride)
		got := make([]float32, len(want))
		Im2Col(got, img, s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d idx %d: got %g want %g", hw, hw, i, got[i], want[i])
			}
		}
	}
}
