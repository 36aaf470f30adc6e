package stats

import (
	"math"
	"testing"
)

func TestTotalVariation(t *testing.T) {
	if got := TotalVariation([]float32{1, 0}, []float32{0, 1}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("disjoint TV = %v, want 1", got)
	}
	p := []float32{0.25, 0.75}
	if got := TotalVariation(p, p); got != 0 {
		t.Fatalf("TV(p,p) = %v", got)
	}
}

func TestDistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TV mismatch did not panic")
		}
	}()
	TotalVariation([]float32{1}, []float32{0.5, 0.5})
}
