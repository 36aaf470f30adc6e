package experiments

import (
	"hash/fnv"
	"testing"
)

// TestFigureTablesGolden pins every simulator- and model-driven table to the
// byte: one FNV-64a over their renderings at the paper-shaped parameters,
// where model and simulator are deterministic. The constant was recorded at
// the commit before the models took G as a parameter and the simulator took
// perfmodel.Params; a refactor of either must reproduce it.
func TestFigureTablesGolden(t *testing.T) {
	p, ns := PaperShapedParams(1600), DefaultWorkerCounts
	h := fnv.New64a()
	for _, tb := range []interface{ String() string }{
		Figure3BatchSweep(p, ns), OptimalBatch(p, ns), Figure4LatencyCPU(p, ns),
		Figure5LatencyGPU(p, ns), HeadlineSpeedups(p, ns), ModelAccuracy(p, ns),
		AblationInterconnect(p, 64),
	} {
		h.Write([]byte(tb.String()))
	}
	if got, want := h.Sum64(), uint64(0x321df0f900924e80); got != want {
		t.Fatalf("figure tables changed: hash %#x, want %#x", got, want)
	}
}
