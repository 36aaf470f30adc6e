package evaluate

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// versionBackend stands for one network: it writes its version into every
// request's Value, so a test can tell from a completion exactly which backend
// evaluated it.
type versionBackend struct {
	version int64
	served  atomic.Int64
}

func (b *versionBackend) RunBatch(batch []*Request) {
	for _, req := range batch {
		for i := range req.Policy {
			req.Policy[i] = 1 / float32(len(req.Policy))
		}
		req.Value = float64(b.version)
		b.served.Add(1)
	}
}

func evalOnce(cl *Client) float64 {
	policy := make([]float32, 4)
	return cl.Evaluate([]float32{1, 0, 1, 0}, policy)
}

// TestSwapBackendRoutesByVersion: once SwapBackend returns, the next
// evaluation runs on the new backend, and swapping in nil is a bug caught at
// the call.
func TestSwapBackendRoutesByVersion(t *testing.T) {
	b1 := &versionBackend{version: 1}
	b2 := &versionBackend{version: 2}
	srv := NewServer(b1, ServerConfig{Batch: 1})
	defer srv.Close()
	cl := srv.NewSyncClient()
	defer cl.Close()

	if v := evalOnce(cl); v != 1 {
		t.Fatalf("pre-swap evaluation served by version %v, want 1", v)
	}
	srv.SwapBackend(b2)
	if v := evalOnce(cl); v != 2 {
		t.Fatalf("post-swap evaluation served by version %v, want 2", v)
	}
	if b1.served.Load() != 1 || b2.served.Load() != 1 {
		t.Fatalf("backends served %d/%d, want 1/1", b1.served.Load(), b2.served.Load())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SwapBackend(nil) did not panic")
		}
	}()
	srv.SwapBackend(nil)
}

// TestSwapUnderLoad drives many concurrent tenants through a sequence of
// swaps (run with -race in CI): every evaluation is served exactly once, and
// a tenant never goes back to an older backend after a newer one served it.
func TestSwapUnderLoad(t *testing.T) {
	backends := make([]*versionBackend, 6)
	for i := range backends {
		backends[i] = &versionBackend{version: int64(i)}
	}
	srv := NewServer(backends[0], ServerConfig{Batch: 8})

	const tenants = 8
	const perTenant = 400
	var wentBack atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := srv.NewSyncClient()
			defer cl.Close()
			policy := make([]float32, 4)
			last := 0.0
			for i := 0; i < perTenant; i++ {
				v := cl.Evaluate([]float32{float32(g)}, policy)
				if v < last {
					wentBack.Add(1)
				}
				last = v
			}
		}(g)
	}
	// Swap through backends 1..5 while the tenants hammer the service.
	for _, b := range backends[1:] {
		time.Sleep(2 * time.Millisecond)
		srv.SwapBackend(b)
	}
	wg.Wait()
	srv.Close()

	var served int64
	for _, b := range backends {
		served += b.served.Load()
	}
	if served != tenants*perTenant {
		t.Fatalf("served %d evaluations, want %d (dropped or duplicated work)", served, tenants*perTenant)
	}
	if wentBack.Load() != 0 {
		t.Fatalf("%d evaluations ran on an older backend than the tenant's previous one", wentBack.Load())
	}
}
