package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/perfmodel"
	"github.com/parmcts/parmcts/internal/simsched"
)

func TestPaperShapedParamsReproduceFigure5Orderings(t *testing.T) {
	// The central reproduction claim: with the calibrated parameters the
	// simulator reproduces the paper's Figure 5 scheme orderings —
	// shared ahead at N=16, tuned local ahead at N=32 and 64, and the
	// full-batch local baseline degrading past N=16.
	p := PaperShapedParams(1600)
	bestLocal := func(n int) (time.Duration, int) {
		probe := func(b int) time.Duration {
			return simsched.LocalAccel(p.Params, p.Playouts, n, b).PerIteration
		}
		b, _ := perfmodel.FindMinV(1, n, probe)
		return probe(b), b
	}
	s16 := simsched.SharedAccel(p.Params, p.Playouts, 16).PerIteration
	l16, _ := bestLocal(16)
	if s16 > l16 {
		t.Errorf("N=16: shared (%v) should beat tuned local (%v)", s16, l16)
	}
	for _, n := range []int{32, 64} {
		s := simsched.SharedAccel(p.Params, p.Playouts, n).PerIteration
		l, b := bestLocal(n)
		if l >= s {
			t.Errorf("N=%d: tuned local (%v @ B=%d) should beat shared (%v)", n, l, b, s)
		}
		if b <= 1 || b >= n {
			t.Errorf("N=%d: optimal batch %d should be interior", n, b)
		}
	}
	// Full-batch local at 64 must be worse than at 16/32 per-iteration
	// terms relative to the tuned value (the Figure 5 observation that
	// fixed-batch local latency rises past N=16).
	full64 := simsched.LocalAccel(p.Params, p.Playouts, 64, 64).PerIteration
	tuned64, _ := bestLocal(64)
	if full64 <= tuned64 {
		t.Errorf("N=64: full batch (%v) should lose to tuned batch (%v)", full64, tuned64)
	}
}

func TestPaperShapedParamsReproduceFigure4Crossover(t *testing.T) {
	p := PaperShapedParams(1600)
	l2 := simsched.LocalCPU(p.Params, p.Playouts, 2).PerIteration
	s2 := simsched.SharedCPU(p.Params, p.Playouts, 2).PerIteration
	if l2 > s2 {
		t.Errorf("N=2: local (%v) should beat shared (%v)", l2, s2)
	}
	l64 := simsched.LocalCPU(p.Params, p.Playouts, 64).PerIteration
	s64 := simsched.SharedCPU(p.Params, p.Playouts, 64).PerIteration
	if s64 > l64 {
		t.Errorf("N=64: shared (%v) should beat local (%v)", s64, l64)
	}
}

func TestFigure3TableShape(t *testing.T) {
	p := PaperShapedParams(400)
	tb := Figure3BatchSweep(p, []int{16, 32})
	if tb.NumRows() != 16+32 {
		t.Fatalf("rows = %d, want 48", tb.NumRows())
	}
	if !strings.Contains(tb.String(), "Figure 3") {
		t.Fatal("title missing")
	}
}

func TestOptimalBatchProbeComplexity(t *testing.T) {
	p := PaperShapedParams(400)
	tb := OptimalBatch(p, []int{16, 32, 64})
	s := tb.CSV()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// N=64 row: Alg.4 probes must be far under the 64 linear probes.
	var n, b, probes, lin int
	var dur string
	if _, err := parseCSVRow(lines[3], &n, &b, &dur, &probes, &lin); err != nil {
		t.Fatal(err)
	}
	if lin != 64 {
		t.Fatalf("linear probes = %d", lin)
	}
	if probes > 16 {
		t.Fatalf("Alg.4 probes = %d, want O(log 64)", probes)
	}
}

func parseCSVRow(line string, n, b *int, dur *string, probes, lin *int) (int, error) {
	parts := strings.Split(line, ",")
	if len(parts) != 5 {
		return 0, &csvErr{line}
	}
	var err error
	*n, err = atoi(parts[0])
	if err != nil {
		return 0, err
	}
	*b, err = atoi(parts[1])
	if err != nil {
		return 0, err
	}
	*dur = parts[2]
	*probes, err = atoi(parts[3])
	if err != nil {
		return 0, err
	}
	*lin, err = atoi(parts[4])
	return 5, err
}

type csvErr struct{ line string }

func (e *csvErr) Error() string { return "bad csv row: " + e.line }

func atoi(s string) (int, error) {
	v := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, &csvErr{s}
		}
		v = v*10 + int(c-'0')
	}
	return v, nil
}

func TestFigure4TableAdaptiveIsMin(t *testing.T) {
	p := PaperShapedParams(800)
	for _, n := range DefaultWorkerCounts {
		local := simsched.LocalCPU(p.Params, p.Playouts, n).PerIteration
		shared := simsched.SharedCPU(p.Params, p.Playouts, n).PerIteration
		choice := perfmodel.ConfigureCPU(p.Params, n)
		adaptive := local
		if choice.Scheme == perfmodel.SchemeShared {
			adaptive = shared
		}
		best := local
		if shared < best {
			best = shared
		}
		// The model-driven choice must be within 25% of the simulated
		// optimum at every N (the models are approximations; Section 4.2).
		if float64(adaptive) > 1.25*float64(best) {
			t.Errorf("N=%d: adaptive %v vs best %v — model mispredicts badly", n, adaptive, best)
		}
	}
	tb := Figure4LatencyCPU(p, DefaultWorkerCounts)
	if tb.NumRows() != len(DefaultWorkerCounts) {
		t.Fatalf("rows = %d", tb.NumRows())
	}
}

func TestFigure5TableShape(t *testing.T) {
	p := PaperShapedParams(800)
	tb := Figure5LatencyGPU(p, []int{16, 32, 64})
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	out := tb.String()
	if !strings.Contains(out, "B*") {
		t.Fatal("missing tuned-batch column")
	}
}

func TestHeadlineSpeedupsAtLeastOne(t *testing.T) {
	p := PaperShapedParams(800)
	tb := HeadlineSpeedups(p, []int{2, 16, 64})
	out := tb.CSV()
	if !strings.Contains(out, "max@N=") {
		t.Fatalf("missing max rows:\n%s", out)
	}
	// Adaptive is the min of the schemes, so every ratio must be >= 1.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		parts := strings.Split(line, ",")
		for _, cell := range parts[2:] {
			cell = strings.TrimSuffix(cell, "x")
			if cell == "" {
				continue
			}
			var v float64
			if _, err := sscanFloat(cell, &v); err != nil {
				continue
			}
			if v < 0.999 {
				t.Fatalf("speedup below 1 in row %q", line)
			}
		}
	}
}

func sscanFloat(s string, v *float64) (int, error) {
	var whole, frac float64
	var seenDot bool
	div := 1.0
	for _, c := range s {
		switch {
		case c == '.':
			seenDot = true
		case c >= '0' && c <= '9':
			if seenDot {
				div *= 10
				frac += float64(c-'0') / div
			} else {
				whole = whole*10 + float64(c-'0')
			}
		default:
			return 0, &csvErr{s}
		}
	}
	*v = whole + frac
	return 1, nil
}

func TestPhaseSplitMatchesPaperClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network profiling")
	}
	// Small board keeps the runtime down; the DNN still dominates.
	tb, evalShare := PhaseSplitFor(gomoku.NewSized(9), 60)
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if evalShare < 0.5 {
		t.Fatalf("DNN evaluation share = %.2f, expected the dominant cost", evalShare)
	}
}

func TestFigure6And7SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("real training run")
	}
	sc := DefaultTrainingScale()
	sc.Game = "gomoku:7"
	sc.Playouts = 16
	sc.Episodes = 1
	sc.SGDIterations = 1
	tb6 := Figure6Throughput(sc, []int{1, 2}, []bool{false})
	if tb6.NumRows() != 2 {
		t.Fatalf("fig6 rows = %d", tb6.NumRows())
	}
	if strings.Contains(tb6.CSV(), "error") {
		t.Fatalf("fig6 errors:\n%s", tb6.String())
	}
	tb7 := Figure7Loss(sc, []int{2}, false)
	if tb7.NumRows() != 1 {
		t.Fatalf("fig7 rows = %d", tb7.NumRows())
	}
	if strings.Contains(tb7.CSV(), "error") {
		t.Fatalf("fig7 errors:\n%s", tb7.String())
	}
}

func TestHostMeasuredParams(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the real network")
	}
	p := HostMeasuredParamsFor(100, gomoku.NewSized(9))
	if p.TSelect <= 0 || p.TDNNCPU <= 0 {
		t.Fatalf("profiling produced non-positive latencies: %+v", p.Params)
	}
}
