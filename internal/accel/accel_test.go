package accel

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
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

// requests wraps inputs as a batch whose policies have actions entries.
func requests(inputs [][]float32, actions int) []*evaluate.Request {
	batch := make([]*evaluate.Request, len(inputs))
	for i, in := range inputs {
		batch[i] = &evaluate.Request{Input: in, Policy: make([]float32, actions)}
	}
	return batch
}

func mustBackend(t testing.TB, name string, spec BackendSpec) *Link {
	t.Helper()
	l, err := NewBackend(name, spec)
	if err != nil {
		t.Fatal(err)
	}
	return l
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
	link := mustBackend(t, "model", BackendSpec{Cost: m})
	start := time.Now()
	link.RunBatch(requests(randInputs(1, 2, 16), 4))
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("RunBatch returned in %v, modeled cost is 5ms", elapsed)
	}
}

func TestModelOutputsAreValidDistributions(t *testing.T) {
	for i, in := range randInputs(2, 5, 36) {
		policy := make([]float32, 9)
		value := Synthetic{}.Evaluate(in, policy)
		var sum float64
		for _, p := range policy {
			if p < 0 {
				t.Fatal("negative prior")
			}
			sum += float64(p)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Fatalf("policy %d sums to %v", i, sum)
		}
		if value < -1 || value > 1 {
			t.Fatalf("value %d out of range: %v", i, value)
		}
	}
}

func TestModelDistinguishesInputs(t *testing.T) {
	a := make([]float32, 36)
	b := make([]float32, 36)
	a[0] = 1
	b[7] = 1
	pa, pb := make([]float32, 9), make([]float32, 9)
	va, vb := Synthetic{}.Evaluate(a, pa), Synthetic{}.Evaluate(b, pb)
	if va == vb && reflect.DeepEqual(pa, pb) {
		t.Fatal("different inputs produced identical synthetic outputs")
	}
}

// countingBackend records how many RunBatch calls are inside it at once; each
// call holds on for hold, so calls that are not serialised overlap.
type countingBackend struct {
	hold              time.Duration
	inside, maxInside atomic.Int64
}

func (c *countingBackend) RunBatch(batch []*evaluate.Request) {
	n := c.inside.Add(1)
	for m := c.maxInside.Load(); n > m && !c.maxInside.CompareAndSwap(m, n); m = c.maxInside.Load() {
	}
	time.Sleep(c.hold)
	c.inside.Add(-1)
}

// TestLinkSerialisesComputeOverlapsTransfer: of 8 concurrent submissions, at
// most one is ever inside the wrapped backend (compute serialises on the
// device), while their transfers overlap: the 8 finish in far less than 8
// transfer times.
func TestLinkSerialisesComputeOverlapsTransfer(t *testing.T) {
	const submitters, transfer = 8, 20 * time.Millisecond
	inner := &countingBackend{hold: 2 * time.Millisecond}
	link := &Link{Cost: CostModel{LaunchLatency: transfer}, Inner: inner}
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < submitters; i++ {
		done.Add(1)
		go func(seed uint64) {
			defer done.Done()
			batch := requests(randInputs(seed, 3, 16), 4)
			start.Wait()
			link.RunBatch(batch)
		}(uint64(i))
	}
	begin := time.Now()
	start.Done()
	done.Wait()
	elapsed := time.Since(begin)
	if got := inner.maxInside.Load(); got != 1 {
		t.Fatalf("%d submissions computed at once, want 1", got)
	}
	// Serial transfers alone would take 8*20ms = 160ms; overlapped, the run
	// is one transfer plus 8 serialised 2ms computes.
	if elapsed >= submitters*transfer/2 {
		t.Fatalf("%d submissions took %v: transfers did not overlap", submitters, elapsed)
	}
}

func TestHostedComputesRealNetworkInParallel(t *testing.T) {
	net := nn.MustNew(nn.TinyConfig(2, 4, 4, 16), rng.New(3))
	link := mustBackend(t, "hosted", BackendSpec{Net: net, Workers: 4})
	inputs := randInputs(4, 10, net.InputLen())
	batch := requests(inputs, 16)
	link.RunBatch(batch)
	// Each sample must come out of the parallel chunks with the bits of the
	// sample forwarded alone.
	ws := nn.NewForwardWorkspace(net)
	for i, req := range batch {
		wantPol := make([]float32, 16)
		wantV := net.Forward(ws, inputs[i], wantPol)
		if math.Float64bits(req.Value) != math.Float64bits(wantV) {
			t.Fatalf("value[%d] mismatch: %v vs %v", i, req.Value, wantV)
		}
		for j, p := range wantPol {
			if math.Float32bits(req.Policy[j]) != math.Float32bits(p) {
				t.Fatalf("policy[%d][%d] mismatch: %v vs %v", i, j, req.Policy[j], p)
			}
		}
	}
}

func TestHostedWorkerClamping(t *testing.T) {
	// More workers than samples must not panic or deadlock.
	net := nn.MustNew(nn.TinyConfig(2, 4, 4, 16), rng.New(5))
	link := mustBackend(t, "hosted", BackendSpec{Net: net, Workers: 64})
	link.RunBatch(requests(randInputs(6, 1, net.InputLen()), 16))
}

// TestBackendRegistry: the registered backends are exactly the two built-in
// Links, and a name that is not one of them — here the int8 backend stale
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

func BenchmarkModelRunBatch16(b *testing.B) {
	link := mustBackend(b, "model", BackendSpec{Cost: CostModel{LinkBytesPerSec: 1e12, BytesPerSample: 1}})
	batch := requests(randInputs(1, 16, 900), 225)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		link.RunBatch(batch)
	}
}

// TestHostedSteadyStateAllocations drives the hosted Link end to end through
// Infer: after the first call warms the pools, repeated same-size Infers
// construct no further forward workspaces — an Infer allocates less than one
// workspace does (its buffers alone are a dozen allocations).
func TestHostedSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	net := nn.MustNew(nn.TinyConfig(2, 5, 5, 25), rng.New(1))
	d := mustBackend(t, "hosted", BackendSpec{Net: net, Cost: CostModel{LinkBytesPerSec: 1e12}, Workers: 1})
	defer d.Close()

	const batch = 8
	inputs := make([][]float32, batch)
	policies := make([][]float32, batch)
	for i := range inputs {
		inputs[i] = make([]float32, net.InputLen())
		policies[i] = make([]float32, net.Cfg.NumActions)
	}
	values := make([]float64, batch)

	perWorkspace := testing.AllocsPerRun(4, func() { nn.NewForwardWorkspace(net) })
	d.Infer(inputs, policies, values)
	if got := testing.AllocsPerRun(64, func() { d.Infer(inputs, policies, values) }); got >= perWorkspace {
		t.Fatalf("steady-state Infer allocates %v times, a workspace %v: it is constructing workspaces", got, perWorkspace)
	}
}
