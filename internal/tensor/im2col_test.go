package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// gatherCase is one random im2col problem: a channels-last image.
type gatherCase struct{ InC, InH, InW int }

// Generate implements quick.Generator: boards up to 19x19 (the bordered
// scratch must follow the shape, not a constant) and up to 70 channels.
func (gatherCase) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(gatherCase{InC: 1 + r.Intn(70), InH: 1 + r.Intn(19), InW: 1 + r.Intn(19)})
}

// sentinelBits fills the capacity past a patch matrix or a product: nothing
// may write it. A NaN payload, so a stray write of any float shows.
const sentinelBits = 0x7fc0ffee

// checkGather runs the 3x3/pad-1 gather on a random image and compares its
// patch matrix with the general loop's, bit for bit. col has spare capacity
// holding the sentinel, which must survive; the gather runs twice on pad,
// the second time after every float of pad's capacity is dirtied, so neither
// a pad left by a larger shape nor one left by this call can leak into the
// result.
func checkGather(g gatherCase, seed int64, pad *[]float32) error {
	r := rand.New(rand.NewSource(seed))
	s := Conv2DShape{InC: g.InC, InH: g.InH, InW: g.InW, OutC: 1, KH: 3, KW: 3, PadH: 1, PadW: 1}
	img := make([]float32, g.InH*g.InW*g.InC)
	for i := range img {
		img[i] = float32(r.Intn(255) - 127)
	}
	n := s.ColRows() * s.ColCols()
	want := make([]float32, n)
	im2colGeneral(want, img, s)
	buf := make([]float32, n+17)
	for i := range buf {
		buf[i] = 99 // every element must be written
	}
	for i := n; i < len(buf); i++ {
		buf[i] = math.Float32frombits(sentinelBits)
	}
	for pass := 0; pass < 2; pass++ {
		gather3x3(buf[:n], padImage(pad, img, s), s)
		for i, v := range buf {
			switch {
			case i < n && math.Float32bits(v) != math.Float32bits(want[i]):
				return fmt.Errorf("%+v pass %d: col[%d] = %g, want %g", g, pass, i, v, want[i])
			case i >= n && math.Float32bits(v) != sentinelBits:
				return fmt.Errorf("%+v pass %d: wrote %g past the patch matrix at +%d", g, pass, v, i-n)
			}
		}
		dirty := (*pad)[:cap(*pad)]
		for i := range dirty {
			dirty[i] = 7
		}
	}
	return nil
}

// TestIm2ColSpecialisedMatchGeneral is the property that lets the trunk's
// 3x3 gather (a bordered copy of the image, then three copies per patch
// row) stand in for the general loop: over edge shapes and random shapes it
// produces identical patch matrices and writes nothing past them. The
// gather is plain Go, the same in every kernel class.
func TestIm2ColSpecialisedMatchGeneral(t *testing.T) {
	var pad []float32
	// Widest first, so the small shapes after it run on its dirty scratch;
	// 1x1 and 1xN boards make the last pixel the only pixel or row.
	for _, g := range []gatherCase{
		{InC: 64, InH: 9, InW: 9},
		{InC: 1, InH: 1, InW: 1},
		{InC: 7, InH: 1, InW: 1},
		{InC: 1, InH: 1, InW: 13},
		{InC: 3, InH: 1, InW: 6},
		{InC: 1, InH: 11, InW: 1},
		{InC: 9, InH: 5, InW: 1},
		{InC: 1, InH: 9, InW: 9},
		{InC: 2, InH: 19, InW: 19},
	} {
		if err := checkGather(g, 1, &pad); err != nil {
			t.Error(err)
		}
	}
	prop := func(g gatherCase, seed int64) bool {
		if err := checkGather(g, seed, &pad); err != nil {
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
// 19x19) through the 3x3 gather, on one scratch shared across inputs: it
// must equal the general loop element for element and leave the sentinel
// past the patch matrix untouched.
func FuzzIm2Col(f *testing.F) {
	f.Add(uint8(63), uint8(8), uint8(8), int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), int64(2))
	f.Add(uint8(4), uint8(0), uint8(18), int64(3))
	f.Add(uint8(31), uint8(12), uint8(0), int64(4))
	var pad []float32
	f.Fuzz(func(t *testing.T, inC, inH, inW uint8, seed int64) {
		g := gatherCase{InC: int(inC)%64 + 1, InH: int(inH)%19 + 1, InW: int(inW)%19 + 1}
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
		s := Conv2DShape{InC: 9, InH: hw, InW: hw, OutC: 1, KH: 3, KW: 3, PadH: 1, PadW: 1}
		img := make([]float32, hw*hw*s.InC)
		for i := range img {
			img[i] = float32(i%17) - 8
		}
		want := make([]float32, s.ColRows()*s.ColCols())
		im2colGeneral(want, img, s)
		got := make([]float32, len(want))
		Im2Col(got, img, s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d idx %d: got %g want %g", hw, hw, i, got[i], want[i])
			}
		}
	}
}
