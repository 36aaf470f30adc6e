package evaluate_test

// The accelerator platform is a Server over an accel.Link. These tests drive
// that pairing through this package's API; they are external tests because
// accel builds on this package.

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// peakBackend records the most RunBatch calls it saw in progress at once,
// each held for at least hold so that overlapping calls are seen.
type peakBackend struct {
	inner      evaluate.Backend
	hold       time.Duration
	live, peak atomic.Int32
}

func (p *peakBackend) RunBatch(batch []*evaluate.Request) {
	n := p.live.Add(1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	p.inner.RunBatch(batch)
	time.Sleep(p.hold)
	p.live.Add(-1)
}

func TestBatchedAsyncOverlappedStreams(t *testing.T) {
	// With sub-batches launched on separate goroutines, 4 batches of 4 must
	// be in the Link at once (their transfers overlap), while the Link holds
	// its one device over Inner, so Inner never runs two batches at once.
	cost := accel.CostModel{
		LaunchLatency:   4 * time.Millisecond,
		BytesPerSample:  1,
		LinkBytesPerSec: 1e12,
		ComputeBase:     2 * time.Millisecond,
	}
	link, err := accel.NewBackend("model", accel.BackendSpec{Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	compute := &peakBackend{inner: link.Inner, hold: time.Millisecond}
	link.Inner = compute
	streams := &peakBackend{inner: link}
	srv := evaluate.NewServer(streams, evaluate.ServerConfig{Batch: 4, MaxOutstanding: 128})
	b := srv.NewSyncClient()
	reqs := make([]*evaluate.Request, 16)
	for i := range reqs {
		reqs[i] = &evaluate.Request{Input: testInput(uint64(i), 8), Policy: make([]float32, 4)}
		b.Submit(reqs[i])
	}
	for _, req := range reqs {
		b.Wait(req)
	}
	b.Close()
	srv.Close()
	if got := streams.peak.Load(); got < 2 {
		t.Fatalf("no overlap: at most %d batch in the Link at once", got)
	}
	if got := compute.peak.Load(); got != 1 {
		t.Fatalf("compute not serialised: %d batches computing at once", got)
	}
}

// TestHostedDeviceMatchesNetwork: the hosted Link fills each request with the
// bits the network's forward pass gives that input on its own.
func TestHostedDeviceMatchesNetwork(t *testing.T) {
	net := nn.MustNew(nn.TinyConfig(2, 5, 5, 25), rng.New(1))
	cost := accel.DefaultCostModel()
	cost.LaunchLatency = 0
	cost.ComputeBase = 0
	link, err := accel.NewBackend("hosted", accel.BackendSpec{Net: net, Cost: cost, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := []*evaluate.Request{
		{Input: testInput(1, net.InputLen()), Policy: make([]float32, 25)},
		{Input: testInput(2, net.InputLen()), Policy: make([]float32, 25)},
	}
	link.RunBatch(batch)
	for i, req := range batch {
		wantPol := make([]float32, 25)
		wantV := net.Forward(nn.NewForwardWorkspace(net), req.Input, wantPol)
		if req.Value != wantV {
			t.Fatalf("value[%d] = %v, want %v", i, req.Value, wantV)
		}
		for j := range wantPol {
			if req.Policy[j] != wantPol[j] {
				t.Fatalf("policy[%d][%d] mismatch", i, j)
			}
		}
	}
}

// TestHostedMatchesProductionForward: the hosted Link wraps the backend every
// production binary serves through, so its RunBatch and a bare
// EvaluatorBackend over NewNN fill the same bits at every batch size and
// split.
func TestHostedMatchesProductionForward(t *testing.T) {
	net := nn.MustNew(nn.TinyConfig(2, 5, 5, 25), rng.New(1))
	cost := accel.DefaultCostModel()
	cost.LaunchLatency, cost.ComputeBase = 0, 0
	for _, b := range []int{1, 3, 8} {
		for _, workers := range []int{1, 2} {
			link, err := accel.NewBackend("hosted", accel.BackendSpec{Net: net, Cost: cost, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			hosted, bare := make([]*evaluate.Request, b), make([]*evaluate.Request, b)
			for i := range hosted {
				in := testInput(uint64(70+i), net.InputLen())
				hosted[i] = &evaluate.Request{Input: in, Policy: make([]float32, net.Cfg.NumActions)}
				bare[i] = &evaluate.Request{Input: in, Policy: make([]float32, net.Cfg.NumActions)}
			}
			link.RunBatch(hosted)
			(&evaluate.EvaluatorBackend{Eval: evaluate.NewNN(net), Workers: workers}).RunBatch(bare)
			for i, req := range bare {
				if math.Float64bits(hosted[i].Value) != math.Float64bits(req.Value) {
					t.Fatalf("b=%d workers=%d sample %d: hosted value %v, production %v", b, workers, i, hosted[i].Value, req.Value)
				}
				for a := range req.Policy {
					if math.Float32bits(hosted[i].Policy[a]) != math.Float32bits(req.Policy[a]) {
						t.Fatalf("b=%d workers=%d sample %d action %d: hosted policy %v, production %v",
							b, workers, i, a, hosted[i].Policy[a], req.Policy[a])
					}
				}
			}
		}
	}
}

func TestCostModelMonotonicity(t *testing.T) {
	m := accel.DefaultCostModel()
	// TransferTime per batch grows with batch; amortized per-sample falls.
	prevAmortized := math.Inf(1)
	for b := 1; b <= 64; b *= 2 {
		tt := m.TransferTime(b)
		amort := float64(tt) / float64(b)
		if amort >= prevAmortized {
			t.Fatalf("amortized transfer not decreasing at B=%d", b)
		}
		prevAmortized = amort
	}
	prev := time.Duration(0)
	for b := 1; b <= 64; b++ {
		ct := m.ComputeTime(b)
		if ct < prev {
			t.Fatalf("compute time not monotonic at B=%d", b)
		}
		prev = ct
	}
}

// TestModelDeviceDeterministic: the same position served twice through the
// "model" Link — Synthetic behind the simulated link — gets the same bits.
func TestModelDeviceDeterministic(t *testing.T) {
	link, err := accel.NewBackend("model", accel.BackendSpec{Cost: accel.DefaultCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	srv := evaluate.NewServer(link, evaluate.ServerConfig{Batch: 1})
	cl := srv.NewSyncClient()
	defer srv.Close()
	defer cl.Close()
	in := testInput(9, 36)
	p1, p2 := make([]float32, 9), make([]float32, 9)
	if v1, v2 := cl.Evaluate(in, p1), cl.Evaluate(in, p2); v1 != v2 {
		t.Fatalf("model device values differ for same input: %v, %v", v1, v2)
	}
	for i := range p1 {
		if math.Float32bits(p1[i]) != math.Float32bits(p2[i]) {
			t.Fatal("model device policies differ")
		}
	}
}
