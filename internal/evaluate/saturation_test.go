package evaluate

import (
	"testing"
	"time"
)

// gatedEvaluator blocks every Evaluate until the gate is released.
type gatedEvaluator struct{ gate chan struct{} }

func (g *gatedEvaluator) Evaluate(input, policy []float32) float64 {
	<-g.gate
	return 0
}

// TestServerSaturation pins the admission-control introspection contract:
// Outstanding tracks held backpressure tokens, Saturated turns true exactly
// when the next Submit would block, and both return to idle after the
// in-flight work drains.
func TestServerSaturation(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer(&EvaluatorBackend{Eval: &gatedEvaluator{gate: gate}, Workers: 2}, ServerConfig{
		Batch:          1,
		MaxOutstanding: 2,
	})
	defer srv.Close()

	if srv.MaxOutstanding() != 2 {
		t.Fatalf("MaxOutstanding = %d, want 2", srv.MaxOutstanding())
	}
	if srv.Saturated() || srv.Outstanding() != 0 {
		t.Fatalf("idle server reports saturated=%v outstanding=%d", srv.Saturated(), srv.Outstanding())
	}

	cl := srv.NewSyncClient()
	input := make([]float32, 4)
	reqs := make([]*Request, 2)
	for i := range reqs {
		reqs[i] = AcquireRequest()
		reqs[i].Input, reqs[i].Policy = input, make([]float32, 4)
		cl.Submit(reqs[i])
	}
	if !srv.Saturated() {
		t.Fatalf("server with MaxOutstanding requests in flight not saturated (outstanding=%d)", srv.Outstanding())
	}
	if srv.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d, want 2", srv.Outstanding())
	}

	close(gate)
	for _, req := range reqs {
		cl.Wait(req)
		ReleaseRequest(req)
	}
	// Token release happens after completion delivery; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for (srv.Saturated() || srv.Outstanding() != 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Saturated() || srv.Outstanding() != 0 {
		t.Fatalf("drained server still reports saturated=%v outstanding=%d", srv.Saturated(), srv.Outstanding())
	}
	cl.Close()
}

// TestServerSaturationUnbounded: a server without a MaxOutstanding bound
// never reports saturation.
func TestServerSaturationUnbounded(t *testing.T) {
	srv := NewServer(&EvaluatorBackend{Eval: &Random{}, Workers: 1}, ServerConfig{Batch: 1})
	defer srv.Close()
	if srv.Saturated() || srv.Outstanding() != 0 || srv.MaxOutstanding() != 0 {
		t.Fatalf("unbounded server reports saturated=%v outstanding=%d max=%d",
			srv.Saturated(), srv.Outstanding(), srv.MaxOutstanding())
	}
}
