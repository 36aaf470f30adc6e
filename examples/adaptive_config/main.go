// Adaptive configuration walkthrough: shows the Section 4 machinery piece
// by piece — design-time profiling, the Equation 3/5 models, the Equation
// 4/6 accelerator models, and the Algorithm 4 batch-size search — and how
// the decision flips between schemes as the worker count grows.
//
//	go run ./examples/adaptive_config
package main

import (
	"fmt"
	"time"

	"github.com/parmcts/parmcts/internal/experiments"
	"github.com/parmcts/parmcts/internal/perfmodel"
	"github.com/parmcts/parmcts/internal/simsched"
)

func main() {
	// Step 1: design-time profiling (here: the calibrated paper-shaped
	// parameters; cmd/figures configure profiles your real host instead).
	lp := experiments.PaperShapedParams(1600)
	params := lp.Params
	fmt.Printf("profiled: T_select=%v T_backup=%v T_DNN=%v T_access=%v\n\n",
		params.TSelect, params.TBackup, params.TDNNCPU, params.TSharedAccess)

	// Step 2: CPU-only decisions across worker counts (Equations 3 vs 5).
	fmt.Println("CPU-only (Eq. 3 vs Eq. 5):")
	for _, n := range []int{2, 8, 16, 32, 64} {
		c := perfmodel.ConfigureCPU(params, n)
		fmt.Printf("  N=%-3d shared=%-10v local=%-10v -> %s\n",
			n, c.PredictedShared, c.PredictedLocal, c.Scheme)
	}

	// Step 3: accelerator decisions with the Algorithm 4 batch search,
	// using the timeline simulator as the "test run".
	fmt.Println("\nCPU-GPU (measured shared vs Algorithm 4-tuned local):")
	for _, n := range []int{16, 32, 64} {
		probe := func(b int) time.Duration {
			return simsched.LocalAccel(params, lp.Playouts, n, b).PerIteration
		}
		// Comparing two measurements (rather than Equation 4's prediction with
		// a test run) keeps model error from flipping a marginal decision.
		sharedMeasured := simsched.SharedAccel(params, lp.Playouts, n).PerIteration
		c := perfmodel.ConfigureGPU(params, n, 1, probe)
		scheme, batch := perfmodel.SchemeShared, n
		if c.PredictedLocal <= sharedMeasured {
			scheme, batch = perfmodel.SchemeLocal, c.LocalBatch
		}
		fmt.Printf("  N=%-3d shared=%-10v local(B=%2d)=%-10v -> %s (%d probes instead of %d)\n",
			n, sharedMeasured, batch, c.PredictedLocal, scheme, c.Probes, n)
	}
}
