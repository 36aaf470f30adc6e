package tensor

import (
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

// gathersAgree runs the specialised 3x3 and 1x1 gathers and the general loop
// on the same random image and reports whether they wrote the same patch
// matrices, element for element.
func gathersAgree(g gatherCase, seed int64) bool {
	r := rand.New(rand.NewSource(seed))
	img := make([]float32, g.Base+g.InC*g.PlaneStride)
	for i := range img {
		img[i] = float32(r.Intn(255) - 127)
	}
	for _, s := range []Conv2DShape{
		{InC: g.InC, InH: g.InH, InW: g.InW, OutC: 1, KH: 3, KW: 3, PadH: 1, PadW: 1},
		{InC: g.InC, InH: g.InH, InW: g.InW, OutC: 1, KH: 1, KW: 1},
	} {
		want := make([]float32, s.ColRows()*s.ColCols())
		im2colGeneral(want, img, s, g.Base, g.PlaneStride)
		got := make([]float32, len(want))
		for i := range got {
			got[i] = 99 // every element must be written
		}
		// A dirty, undersized scratch: the dispatcher must size it from the
		// shape and the gather must zero its own border.
		pad := []float32{5, 5, 5}
		im2colStrided(got, img, s, g.Base, g.PlaneStride, &pad)
		if !reflect.DeepEqual(got, want) {
			return false
		}
		for i := range pad {
			pad[i] = 7
		}
		im2colStrided(got, img, s, g.Base, g.PlaneStride, &pad)
		if !reflect.DeepEqual(got, want) {
			return false
		}
	}
	return true
}

// TestIm2ColSpecialisedMatchGeneral is the property that lets the trunk's
// branch-free 3x3 gather and the heads' blocked 1x1 transpose stand in for
// the general loop: over random shapes, bases and plane strides they produce
// identical patch matrices.
func TestIm2ColSpecialisedMatchGeneral(t *testing.T) {
	if err := quick.Check(gathersAgree, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIm2ColExportedUseSpecialised: the exported entry point reaches the same
// result through the pooled scratch, on a 19x19 board after a 3x3 one (the
// pooled buffer must grow).
func TestIm2ColExportedUseSpecialised(t *testing.T) {
	for _, hw := range []int{3, 19, 5} {
		g := gatherCase{InC: 9, InH: hw, InW: hw, Base: 4, PlaneStride: hw*hw + 3}
		s := Conv2DShape{InC: g.InC, InH: hw, InW: hw, OutC: 1, KH: 3, KW: 3, PadH: 1, PadW: 1}
		img := make([]float32, g.Base+g.InC*g.PlaneStride)
		for i := range img {
			img[i] = float32(i%17) - 8
		}
		want := make([]float32, s.ColRows()*s.ColCols())
		im2colGeneral(want, img, s, g.Base, g.PlaneStride)
		got := make([]float32, len(want))
		Im2ColStrided(got, img, s, g.Base, g.PlaneStride)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d idx %d: got %g want %g", hw, hw, i, got[i], want[i])
			}
		}
	}
}
