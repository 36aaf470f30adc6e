package evaluate

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

func testNet(t testing.TB) *nn.Network {
	t.Helper()
	return nn.MustNew(nn.TinyConfig(2, 5, 5, 25), rng.New(1))
}

func testInput(seed uint64, n int) []float32 {
	r := rng.New(seed)
	in := make([]float32, n)
	for i := range in {
		in[i] = r.Float32()
	}
	return in
}

// forwardAlone runs in through nn.Network.Forward on a fresh workspace.
func forwardAlone(net *nn.Network, in []float32) (policy []float32, value float64) {
	policy = make([]float32, net.Cfg.NumActions)
	return policy, net.Forward(nn.NewForwardWorkspace(net), in, policy)
}

func policyOK(t *testing.T, policy []float32) {
	t.Helper()
	var sum float64
	for _, p := range policy {
		if p < 0 || math.IsNaN(float64(p)) {
			t.Fatal("bad policy entry")
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("policy sums to %v", sum)
	}
}

func TestNNEvaluatorMatchesDirectForward(t *testing.T) {
	net := testNet(t)
	e := NewNN(net)
	in := testInput(2, net.InputLen())
	policy := make([]float32, 25)
	v := e.Evaluate(in, policy)
	wantPol, wantV := forwardAlone(net, in)
	if v != wantV {
		t.Fatalf("value %v, want %v", v, wantV)
	}
	for i := range policy {
		if policy[i] != wantPol[i] {
			t.Fatal("policy mismatch")
		}
	}
}

func TestNNEvaluatorConcurrent(t *testing.T) {
	net := testNet(t)
	e := NewNN(net)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			in := testInput(seed, net.InputLen())
			policy := make([]float32, 25)
			for i := 0; i < 30; i++ {
				e.Evaluate(in, policy)
			}
		}(uint64(w))
	}
	wg.Wait()
}

func TestRandomEvaluatorDeterministicAndNormalized(t *testing.T) {
	e := &Random{}
	in := testInput(3, 50)
	p1 := make([]float32, 25)
	p2 := make([]float32, 25)
	v1 := e.Evaluate(in, p1)
	v2 := e.Evaluate(in, p2)
	if v1 != v2 {
		t.Fatal("random evaluator not deterministic for same input")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("policies differ")
		}
	}
	policyOK(t, p1)
}

func TestRandomEvaluatorLatency(t *testing.T) {
	e := &Random{Latency: 2 * time.Millisecond}
	in := testInput(4, 10)
	policy := make([]float32, 5)
	start := time.Now()
	e.Evaluate(in, policy)
	if took := time.Since(start); took < 2*time.Millisecond {
		t.Fatalf("latency not honoured: %v", took)
	}
}

func TestPoolProcessesAllRequests(t *testing.T) {
	e := &Random{}
	p := NewPool(e, 4)
	const n = 100
	submitted := make(chan *Request, n)
	go func() {
		for i := 0; i < n; i++ {
			req := &Request{
				Input:  testInput(uint64(i), 20),
				Policy: make([]float32, 10),
			}
			p.Submit(req)
			submitted <- req
		}
	}()
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = <-submitted
		p.Wait(reqs[i])
		policyOK(t, reqs[i].Policy)
	}
	p.Close()
	for i, req := range reqs {
		if len(req.done) > 0 {
			t.Fatalf("request %d delivered twice", i)
		}
	}
	if !p.srv.closed.Load() {
		t.Fatal("closing the pool's client left its private server running")
	}
}

func TestPoolPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero workers did not panic")
		}
	}()
	NewPool(&Random{}, 0)
}

// The shared-tree + GPU queue (Section 3.3) is a sync tenant of a Server
// whose threshold is the worker count: four blocked callers are one batch.
func TestSyncClientReleasesFullBatch(t *testing.T) {
	srv := NewServer(&EvaluatorBackend{Eval: &Random{}}, ServerConfig{Batch: 4})
	cl := srv.NewSyncClient()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			policy := make([]float32, 9)
			cl.Evaluate(testInput(uint64(i), 36), policy)
			policyOK(t, policy)
		}(i)
	}
	wg.Wait() // deadlocks (test timeout) if the batch never flushes
	cl.Close()
	srv.Close()
	if st := srv.Stats(); st.Batches != 1 || st.Requests != 4 {
		t.Fatalf("4 simultaneous callers made %d batches of %d requests, want one batch of 4", st.Batches, st.Requests)
	}
}

// TestBatchedAsyncDeliversAll: the local-tree accelerator queue — one
// asynchronous tenant of a Server with threshold B and no flush deadline —
// delivers every request, including a partial last batch that only moves when
// Wait pushes it.
func TestBatchedAsyncDeliversAll(t *testing.T) {
	srv := NewServer(&EvaluatorBackend{Eval: &Random{}}, ServerConfig{Batch: 3, MaxOutstanding: 32})
	b := srv.NewSyncClient()
	const n = 20 // not a multiple of 3: the last two only move when Wait pushes them
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{
			Input:  testInput(uint64(i), 36),
			Policy: make([]float32, 9),
		}
		b.Submit(reqs[i])
	}
	done := make(chan int, n)
	go func() {
		for i, req := range reqs {
			b.Wait(req)
			done <- i
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d completions", i)
		}
	}
	b.Close()
	srv.Close()
	for i, req := range reqs {
		if len(req.done) > 0 {
			t.Fatalf("duplicate completion %d", i)
		}
	}
}
