package stats

import "math"

// TotalVariation returns the total-variation distance between two
// probability vectors: half the L1 distance, in [0, 1].
func TotalVariation(p, q []float32) float64 {
	if len(p) != len(q) {
		panic("stats: TotalVariation length mismatch")
	}
	var s float64
	for i := range p {
		s += math.Abs(float64(p[i]) - float64(q[i]))
	}
	return s / 2
}
