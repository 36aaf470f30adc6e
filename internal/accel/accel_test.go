package accel

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

func randInputs(seed uint64, n, dim int) [][]float32 {
	r := rng.New(seed)
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, dim)
		for j := range out[i] {
			out[i][j] = r.Float32()
		}
	}
	return out
}

func TestCostModelTransferDecomposition(t *testing.T) {
	m := CostModel{
		LaunchLatency:   10 * time.Microsecond,
		BytesPerSample:  1000,
		LinkBytesPerSec: 1e9, // 1us per 1000 bytes
	}
	got := m.TransferTime(8)
	want := 10*time.Microsecond + 8*time.Microsecond
	if got != want {
		t.Fatalf("TransferTime(8) = %v, want %v", got, want)
	}
}

func TestCostModelComputeLinear(t *testing.T) {
	m := CostModel{ComputeBase: 5 * time.Microsecond, ComputePerSample: 2 * time.Microsecond}
	if got := m.ComputeTime(10); got != 25*time.Microsecond {
		t.Fatalf("ComputeTime(10) = %v", got)
	}
	if got := m.ComputeTime(0); got != 5*time.Microsecond {
		t.Fatalf("ComputeTime(0) = %v", got)
	}
}

func TestModelSpendsModeledTime(t *testing.T) {
	m := CostModel{
		LaunchLatency:    3 * time.Millisecond,
		BytesPerSample:   1,
		LinkBytesPerSec:  1e12,
		ComputeBase:      2 * time.Millisecond,
		ComputePerSample: 0,
	}
	dev := NewModel(m)
	inputs := randInputs(1, 2, 16)
	policies := [][]float32{make([]float32, 4), make([]float32, 4)}
	values := make([]float64, 2)
	start := time.Now()
	dev.Infer(inputs, policies, values)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("Infer returned in %v, modeled cost is 5ms", elapsed)
	}
}

func TestModelOutputsAreValidDistributions(t *testing.T) {
	dev := NewModel(CostModel{LinkBytesPerSec: 1e12, BytesPerSample: 1})
	inputs := randInputs(2, 5, 36)
	policies := make([][]float32, 5)
	for i := range policies {
		policies[i] = make([]float32, 9)
	}
	values := make([]float64, 5)
	dev.Infer(inputs, policies, values)
	for i := range policies {
		var sum float64
		for _, p := range policies[i] {
			if p < 0 {
				t.Fatal("negative prior")
			}
			sum += float64(p)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Fatalf("policy %d sums to %v", i, sum)
		}
		if values[i] < -1 || values[i] > 1 {
			t.Fatalf("value %d out of range: %v", i, values[i])
		}
	}
}

func TestModelDistinguishesInputs(t *testing.T) {
	dev := NewModel(CostModel{LinkBytesPerSec: 1e12, BytesPerSample: 1})
	a := make([]float32, 36)
	b := make([]float32, 36)
	a[0] = 1
	b[7] = 1
	pa, pb := make([]float32, 9), make([]float32, 9)
	va, vb := make([]float64, 1), make([]float64, 1)
	dev.Infer([][]float32{a}, [][]float32{pa}, va)
	dev.Infer([][]float32{b}, [][]float32{pb}, vb)
	same := va[0] == vb[0]
	for i := range pa {
		if pa[i] != pb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different inputs produced identical synthetic outputs")
	}
}

func TestModelConcurrentInferIsSafe(t *testing.T) {
	dev := NewModel(CostModel{LinkBytesPerSec: 1e12, BytesPerSample: 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			inputs := randInputs(seed, 3, 16)
			policies := [][]float32{make([]float32, 4), make([]float32, 4), make([]float32, 4)}
			values := make([]float64, 3)
			for i := 0; i < 20; i++ {
				dev.Infer(inputs, policies, values)
			}
		}(uint64(w))
	}
	wg.Wait()
}

func TestHostedComputesRealNetworkInParallel(t *testing.T) {
	net := nn.MustNew(nn.TinyConfig(2, 4, 4, 16), rng.New(3))
	dev := NewHosted(net, CostModel{LinkBytesPerSec: 1e12, BytesPerSample: 1}, 4)
	if dev.Name() == "" {
		t.Fatal("no device name")
	}
	const batch = 10
	inputs := randInputs(4, batch, net.InputLen())
	policies := make([][]float32, batch)
	for i := range policies {
		policies[i] = make([]float32, 16)
	}
	values := make([]float64, batch)
	dev.Infer(inputs, policies, values)
	// Each sample must come out of the parallel sub-batches with the bits of
	// the sample forwarded alone (the nn property test's contract).
	ws := nn.NewBatchWorkspace(net, 1)
	for i := range inputs {
		wantPol, wantV := [][]float32{make([]float32, 16)}, make([]float64, 1)
		net.ForwardBatch(ws, inputs[i:i+1], wantPol, wantV)
		if math.Float64bits(values[i]) != math.Float64bits(wantV[0]) {
			t.Fatalf("value[%d] mismatch: %v vs %v", i, values[i], wantV[0])
		}
		for j, p := range wantPol[0] {
			if math.Float32bits(policies[i][j]) != math.Float32bits(p) {
				t.Fatalf("policy[%d][%d] mismatch: %v vs %v", i, j, policies[i][j], p)
			}
		}
	}
}

func TestHostedWorkerClamping(t *testing.T) {
	// More workers than samples must not panic or deadlock.
	net := nn.MustNew(nn.TinyConfig(2, 4, 4, 16), rng.New(5))
	dev := NewHosted(net, CostModel{LinkBytesPerSec: 1e12, BytesPerSample: 1}, 64)
	inputs := randInputs(6, 1, net.InputLen())
	policies := [][]float32{make([]float32, 16)}
	values := make([]float64, 1)
	dev.Infer(inputs, policies, values)
}

// TestBackendRegistry: the registered backends are exactly the two built-in
// devices, and a name that is not one of them — here the int8 backend stale
// scripts may still pass — fails with the available set.
func TestBackendRegistry(t *testing.T) {
	want := []string{"hosted", "model"}
	if got := BackendNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BackendNames() = %v, want %v", got, want)
	}
	dev, err := NewBackend("hosted-quantized", BackendSpec{})
	if err == nil || dev != nil {
		t.Fatalf("NewBackend(hosted-quantized) = %v, %v, want an unknown-backend error", dev, err)
	}
	if !strings.Contains(err.Error(), "unknown backend") || !strings.Contains(err.Error(), "[hosted model]") {
		t.Fatalf("error %q does not list the available backends", err)
	}
}

func TestSpinShortDurations(t *testing.T) {
	start := time.Now()
	spin(50 * time.Microsecond)
	if time.Since(start) < 50*time.Microsecond {
		t.Fatal("spin returned early")
	}
	spin(0)  // no-op
	spin(-1) // no-op
}

func BenchmarkModelInferBatch16(b *testing.B) {
	dev := NewModel(CostModel{LinkBytesPerSec: 1e12, BytesPerSample: 1})
	inputs := randInputs(1, 16, 900)
	policies := make([][]float32, 16)
	for i := range policies {
		policies[i] = make([]float32, 225)
	}
	values := make([]float64, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev.Infer(inputs, policies, values)
	}
}

// TestHostedSteadyStateAllocations drives the real Hosted device end to end:
// after the first call warms the pool, repeated same-size Infers construct
// no further BatchWorkspaces — an Infer allocates less than one workspace
// does (its buffers alone are a dozen allocations).
func TestHostedSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	net := nn.MustNew(nn.TinyConfig(2, 5, 5, 25), rng.New(1))
	d := NewHosted(net, CostModel{LinkBytesPerSec: 1e12}, 1)
	defer d.Close()

	const batch = 8
	inputs := make([][]float32, batch)
	policies := make([][]float32, batch)
	for i := range inputs {
		inputs[i] = make([]float32, net.InputLen())
		policies[i] = make([]float32, net.Cfg.NumActions)
	}
	values := make([]float64, batch)

	perWorkspace := testing.AllocsPerRun(4, func() { nn.NewBatchWorkspace(net, batch) })
	d.Infer(inputs, policies, values)
	if got := testing.AllocsPerRun(64, func() { d.Infer(inputs, policies, values) }); got >= perWorkspace {
		t.Fatalf("steady-state Infer allocates %v times, a workspace %v: it is constructing workspaces", got, perWorkspace)
	}
}

// TestForChunks: every index is covered exactly once by at most w contiguous
// chunks, for w below, at and above n and for the GOMAXPROCS default; and the
// chunks of one call run concurrently (each waits for all the others before
// returning).
func TestForChunks(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{0, 4}, {1, 4}, {8, 2}, {8, 3}, {7, 7}, {5, 9}, {9, 1}, {6, 0}} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		chunks := 0
		ForChunks(tc.n, tc.w, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			chunks++
			if lo >= hi || hi > tc.n {
				t.Errorf("n=%d w=%d: chunk [%d, %d)", tc.n, tc.w, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Errorf("n=%d w=%d: index %d covered %d times", tc.n, tc.w, i, c)
			}
		}
		if w := tc.w; w > 0 && chunks > min(w, tc.n) {
			t.Errorf("n=%d w=%d: %d chunks", tc.n, tc.w, chunks)
		}
	}

	var barrier sync.WaitGroup
	barrier.Add(4)
	ForChunks(8, 4, func(lo, hi int) {
		barrier.Done()
		barrier.Wait() // returns only once all four chunks are running
	})
}
