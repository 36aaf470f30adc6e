package simsched

import (
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/perfmodel"
)

// paperLikeWorkload returns per-operation latencies of the same order as a
// Gomoku 15x15 search with a 5-conv net on a workstation CPU.
func paperLikeWorkload() perfmodel.Params {
	gpu := accel.DefaultCostModel()
	return perfmodel.Params{
		TSelect:       4 * time.Microsecond,
		TBackup:       2 * time.Microsecond,
		TDNNCPU:       1200 * time.Microsecond,
		TSharedAccess: 500 * time.Nanosecond,
		GPU:           &gpu,
	}
}

func TestSharedCPUSingleWorkerIsSerial(t *testing.T) {
	w := paperLikeWorkload()
	res := SharedCPU(w, 100, 1)
	perIter := w.TSharedAccess + w.TSelect + w.TDNNCPU + w.TBackup
	want := time.Duration(100) * perIter
	if res.Total != want {
		t.Fatalf("total = %v, want %v", res.Total, want)
	}
	if res.PerIteration != perIter {
		t.Fatalf("per-iter = %v, want %v", res.PerIteration, perIter)
	}
}

func TestSharedCPUScalesThenSaturates(t *testing.T) {
	w := paperLikeWorkload()
	prev := SharedCPU(w, 1600, 1).PerIteration
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		cur := SharedCPU(w, 1600, n).PerIteration
		if cur > prev {
			t.Fatalf("shared per-iteration rose at N=%d: %v > %v", n, cur, prev)
		}
		prev = cur
	}
	// The serialized access is the scaling floor.
	if floor := SharedCPU(w, 1600, 4096).PerIteration; floor < w.TSharedAccess {
		t.Fatalf("per-iteration %v below the serialization floor %v", floor, w.TSharedAccess)
	}
}

func TestLocalCPUBoundsMatchEquation5(t *testing.T) {
	w := paperLikeWorkload()
	// DNN-bound regime: per-iteration -> TDNN/N as N grows while the
	// master is not yet the bottleneck.
	r4 := LocalCPU(w, 1600, 4)
	lower := w.TDNNCPU / 4
	if r4.PerIteration < lower {
		t.Fatalf("N=4 per-iteration %v below DNN bound %v", r4.PerIteration, lower)
	}
	if r4.PerIteration > lower+2*(w.TSelect+w.TBackup)*2 {
		t.Fatalf("N=4 per-iteration %v far above DNN bound %v", r4.PerIteration, lower)
	}
	// Master-bound regime: per-iteration floors at TSelect+TBackup.
	rBig := LocalCPU(w, 1600, 4096)
	floor := w.TSelect + w.TBackup
	if rBig.PerIteration < floor {
		t.Fatalf("per-iteration %v below master floor %v", rBig.PerIteration, floor)
	}
	if rBig.PerIteration > floor*2 {
		t.Fatalf("per-iteration %v not near master floor %v", rBig.PerIteration, floor)
	}
}

func TestCPUSchemesCrossOver(t *testing.T) {
	// Figure 4's qualitative content: local wins at small N (inference
	// parallelism is everything), shared wins at large N (the master
	// thread serialises the in-tree work). Verify both regimes and that
	// adaptive = min(local, shared) at every N.
	w := paperLikeWorkload()
	smallN, largeN := 2, 512
	if LocalCPU(w, 1600, smallN).PerIteration > SharedCPU(w, 1600, smallN).PerIteration {
		t.Error("local should win at small N")
	}
	if SharedCPU(w, 1600, largeN).PerIteration > LocalCPU(w, 1600, largeN).PerIteration {
		t.Error("shared should win at large N")
	}
}

func TestSharedAccelBatchCount(t *testing.T) {
	w := paperLikeWorkload()
	res := SharedAccel(w, 100, 16)
	if res.Batches != 7 { // ceil(100/16)
		t.Fatalf("batches = %d, want 7", res.Batches)
	}
}

func TestLocalAccelBatchCount(t *testing.T) {
	w := paperLikeWorkload()
	res := LocalAccel(w, 100, 16, 8)
	// 100 submissions in sub-batches of 8 = 12 full + 1 partial flush.
	if res.Batches < 12 || res.Batches > 13 {
		t.Fatalf("batches = %d, want 12-13", res.Batches)
	}
}

func TestLocalAccelVShape(t *testing.T) {
	// Figure 3: per-iteration latency over B falls (launch amortization),
	// bottoms, then rises (master runs ahead serially while the GPU waits
	// for full batches). Check the coarse V: both extremes are worse than
	// the best interior point.
	w := paperLikeWorkload()
	for _, n := range []int{16, 32, 64} {
		best := time.Duration(1 << 62)
		bestB := 1
		for b := 1; b <= n; b++ {
			d := LocalAccel(w, 1600, n, b).PerIteration
			if d < best {
				best, bestB = d, b
			}
		}
		atOne := LocalAccel(w, 1600, n, 1).PerIteration
		atN := LocalAccel(w, 1600, n, n).PerIteration
		if !(best < atOne) {
			t.Errorf("N=%d: B=1 (%v) should be worse than best B=%d (%v)", n, atOne, bestB, best)
		}
		if bestB == 1 || bestB == n {
			t.Errorf("N=%d: optimum at extreme B=%d, expected interior", n, bestB)
		}
		_ = atN
	}
}

func TestLocalAccelB1SerializesInference(t *testing.T) {
	// At B=1 each inference pays the full launch latency: the per-iteration
	// cost must be at least launch+compute(1) when the GPU is the bottleneck.
	w := paperLikeWorkload()
	w.TSelect = 100 * time.Nanosecond
	w.TBackup = 100 * time.Nanosecond
	m := w.GPU
	res := LocalAccel(w, 400, 16, 1)
	floor := m.ComputeTime(1) // compute is serialized device-side
	if res.PerIteration < floor {
		t.Fatalf("B=1 per-iteration %v below compute floor %v", res.PerIteration, floor)
	}
}

func TestAccelSchemesProduceFiniteOrderedResults(t *testing.T) {
	w := paperLikeWorkload()
	for _, n := range []int{1, 4, 16, 64} {
		s := SharedAccel(w, 1600, n)
		l := LocalAccel(w, 1600, n, maxInt(1, n/2))
		if s.Total <= 0 || l.Total <= 0 {
			t.Fatalf("non-positive totals at N=%d", n)
		}
		if s.PerIteration <= 0 || l.PerIteration <= 0 {
			t.Fatalf("non-positive per-iteration at N=%d", n)
		}
	}
}

func TestPanicsOnBadN(t *testing.T) {
	w := paperLikeWorkload()
	for name, f := range map[string]func(){
		"SharedCPU":   func() { SharedCPU(w, 10, 0) },
		"LocalCPU":    func() { LocalCPU(w, 10, 0) },
		"SharedAccel": func() { SharedAccel(w, 10, 0) },
		"LocalAccel":  func() { LocalAccel(w, 10, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with n=0 did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLocalAccelClampsB(t *testing.T) {
	w := paperLikeWorkload()
	if LocalAccel(w, 64, 8, 0).Total != LocalAccel(w, 64, 8, 1).Total {
		t.Error("B=0 should clamp to 1")
	}
	if LocalAccel(w, 64, 8, 100).Total != LocalAccel(w, 64, 8, 8).Total {
		t.Error("B>N should clamp to N")
	}
}

func TestDeterminism(t *testing.T) {
	w := paperLikeWorkload()
	if LocalAccel(w, 777, 32, 10) != LocalAccel(w, 777, 32, 10) {
		t.Error("LocalAccel not deterministic")
	}
	if SharedAccel(w, 777, 32) != SharedAccel(w, 777, 32) {
		t.Error("SharedAccel not deterministic")
	}
	if SharedCPU(w, 777, 32) != SharedCPU(w, 777, 32) {
		t.Error("SharedCPU not deterministic")
	}
	if LocalCPU(w, 777, 32) != LocalCPU(w, 777, 32) {
		t.Error("LocalCPU not deterministic")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
