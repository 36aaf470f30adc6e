package experiments

import (
	"fmt"
	"time"

	"github.com/parmcts/parmcts/internal/perfmodel"
	"github.com/parmcts/parmcts/internal/simsched"
	"github.com/parmcts/parmcts/internal/stats"
)

// ModelAccuracy validates the Section 4.2 claim that the design-time
// profiled latencies "provide a close prediction for the actual latencies
// at run time": it compares the closed-form per-iteration predictions of
// Equations 3-6 against the discrete-event timeline simulation across
// worker counts, reporting the relative error and — more importantly —
// whether the model and the simulation agree on the *scheme choice*, which
// is all the compile-time decision actually consumes.
func ModelAccuracy(p LatencyParams, ns []int) *stats.Table {
	tb := stats.NewTable("Model validation: Equations 3-6 vs simulated timelines",
		"platform", "N", "model shared", "sim shared", "err", "model local", "sim local", "err", "choice agrees")
	relErr := func(model, sim time.Duration) string {
		if sim == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.0f%%", 100*(float64(model)-float64(sim))/float64(sim))
	}
	for _, n := range ns {
		mShared := perfmodel.PerIteration(perfmodel.SharedCPU(p.Params, n), n)
		sShared := simsched.SharedCPU(p.Params, p.Playouts, n).PerIteration
		mLocal := perfmodel.PerIteration(perfmodel.LocalCPU(p.Params, n), n)
		sLocal := simsched.LocalCPU(p.Params, p.Playouts, n).PerIteration
		agree := (mLocal <= mShared) == (sLocal <= sShared)
		tb.AddRow("cpu", n, mShared, sShared, relErr(mShared, sShared),
			mLocal, sLocal, relErr(mLocal, sLocal), agree)
	}
	for _, n := range ns {
		if n < 2 {
			continue
		}
		mShared := perfmodel.PerIteration(perfmodel.SharedGPU(p.Params, n, 1), n)
		sShared := simsched.SharedAccel(p.Params, p.Playouts, n).PerIteration
		// Compare both at the simulator-tuned batch size so the error
		// reflects the model itself, not a different operating point.
		probe := func(b int) time.Duration {
			return simsched.LocalAccel(p.Params, p.Playouts, n, b).PerIteration
		}
		bStar, _ := perfmodel.FindMinV(1, n, probe)
		mLocal := perfmodel.PerIteration(perfmodel.LocalGPU(p.Params, n, bStar, 1), n)
		sLocal := probe(bStar)
		agree := (mLocal <= mShared) == (sLocal <= sShared)
		tb.AddRow("cpu-gpu", n, mShared, sShared, relErr(mShared, sShared),
			mLocal, sLocal, relErr(mLocal, sLocal), agree)
	}
	return tb
}
