package perfmodel

import "time"

// Choice is the output of the design configuration workflow: the parallel
// scheme to compile in (and, on an accelerator platform, the sub-batch
// size B), plus the evidence behind the decision.
type Choice struct {
	// N is the worker count the choice was made for.
	N int
	// Scheme is the selected parallel implementation.
	Scheme Scheme
	// BatchSize is the accelerator batch threshold B for the local scheme
	// (the full batch G*N for the shared scheme, which always fills it).
	BatchSize int
	// LocalBatch is B*, the threshold Algorithm 4 found for the local scheme
	// and PredictedLocal was taken at, whichever scheme won (0 on CPU-only).
	LocalBatch int
	// PredictedShared and PredictedLocal are the amortized
	// per-worker-iteration latencies the decision compared (model-derived,
	// or test-run-derived for local+GPU) — the paper's speed metric.
	PredictedShared time.Duration
	PredictedLocal  time.Duration
	// Probes counts the test runs spent searching B (0 on CPU-only).
	Probes int
}

// ConfigureCPU runs the CPU-only design configuration workflow: plug the
// profiled parameters into Equations 3 and 5 and pick the faster scheme.
func ConfigureCPU(p Params, n int) Choice {
	shared := PerIteration(SharedCPU(p, n), n)
	local := PerIteration(LocalCPU(p, n), n)
	c := Choice{N: n, PredictedShared: shared, PredictedLocal: local, BatchSize: n}
	if local <= shared {
		c.Scheme = SchemeLocal
	} else {
		c.Scheme = SchemeShared
	}
	return c
}

// ConfigureGPU runs the CPU-GPU workflow for G co-located searches sharing
// one inference service (G = 1 is the paper's single search). The shared
// scheme's latency comes from Equation 4 at aggregate fill (its batch is
// pinned to G*N). The local scheme's service batch threshold B is found with
// Algorithm 4 over [1, G*N] on testRun, the caller's "Test Run" that measures
// one move and reports the amortized per-worker-iteration latency at a given
// B (total move time / playouts, exactly how Section 5.3 measures); when
// testRun is nil the Equation 6 model substitutes for it. The returned
// Choice's BatchSize is the SERVICE threshold (aggregate across tenants), so
// a non-nil testRun must measure the whole G-tenant fleet: a single-search
// probe cannot reach thresholds beyond one tenant's in-flight bound N.
func ConfigureGPU(p Params, n, g int, testRun func(b int) time.Duration) Choice {
	if g < 1 {
		g = 1
	}
	shared := PerIteration(SharedGPU(p, n, g), n)
	probe := testRun
	if probe == nil {
		probe = func(b int) time.Duration { return PerIteration(LocalGPU(p, n, b, g), n) }
	}
	bestB, probes := FindMinV(1, g*n, probe)
	local := probe(bestB)
	c := Choice{
		N:               n,
		BatchSize:       bestB,
		LocalBatch:      bestB,
		PredictedShared: shared,
		PredictedLocal:  local,
		Probes:          probes,
	}
	if local <= shared {
		c.Scheme = SchemeLocal
	} else {
		c.Scheme = SchemeShared
		c.BatchSize = g * n
	}
	return c
}
