package evaluate

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// versionBackend serves one model version: it asserts every request routed
// to it is stamped with its version and writes the version into Value, so a
// test can tell from a completion exactly which "network" evaluated it.
type versionBackend struct {
	version    int64
	served     atomic.Int64
	mismatches atomic.Int64
}

func (b *versionBackend) RunBatch(batch []*Request) {
	for _, req := range batch {
		if req.Version != b.version {
			b.mismatches.Add(1)
		}
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

// TestSwapBackendRoutesByVersion: before the swap all traffic lands on v1,
// after the swap unpinned traffic lands on v2 while a pinned tenant keeps
// evaluating on v1 — both versions live simultaneously.
func TestSwapBackendRoutesByVersion(t *testing.T) {
	b1 := &versionBackend{version: 1}
	b2 := &versionBackend{version: 2}
	srv := NewServer(b1, ServerConfig{Batch: 1})
	defer srv.Close()
	if srv.Version() != 1 {
		t.Fatalf("initial version = %d, want 1", srv.Version())
	}

	unpinned := srv.NewSyncClient()
	pinned := srv.NewSyncClient()
	pinned.PinCurrent()
	defer unpinned.Close()
	defer pinned.Close()

	if v := evalOnce(unpinned); v != 1 {
		t.Fatalf("pre-swap evaluation served by version %v, want 1", v)
	}
	srv.SwapBackend(b2, 2)
	if srv.Version() != 2 {
		t.Fatalf("post-swap version = %d, want 2", srv.Version())
	}
	if v := evalOnce(unpinned); v != 2 {
		t.Fatalf("post-swap unpinned evaluation served by version %v, want 2", v)
	}
	if v := evalOnce(pinned); v != 1 {
		t.Fatalf("post-swap pinned evaluation served by version %v, want 1 (incumbent)", v)
	}
	if b1.mismatches.Load() != 0 || b2.mismatches.Load() != 0 {
		t.Fatal("a backend saw a request stamped for another version")
	}
}

// TestSwapBufferedRequestsKeepOldVersion: requests sitting in the batch
// buffer when the swap lands were stamped at submit time and must be served
// by the OLD network, even though their batch launches after the swap — and
// a post-swap submission joining the same launch must be split out to the
// new one.
func TestSwapBufferedRequestsKeepOldVersion(t *testing.T) {
	b1 := &versionBackend{version: 1}
	b2 := &versionBackend{version: 2}
	// Threshold 4, no deadline: nothing launches until four requests (or a
	// Flush) arrive.
	srv := NewServer(b1, ServerConfig{Batch: 4})
	cl := srv.NewClient(8)

	submit := func(n int) []*Request {
		reqs := make([]*Request, n)
		for i := range reqs {
			reqs[i] = &Request{Input: []float32{1}, Policy: make([]float32, 2)}
			cl.Submit(reqs[i])
		}
		return reqs
	}
	pre := submit(2) // buffered, stamped v1
	srv.SwapBackend(b2, 2)
	post := submit(2) // buffered, stamped v2; completes the threshold batch

	got := map[*Request]bool{}
	for i := 0; i < 4; i++ {
		got[<-cl.Completions()] = true
	}
	for _, req := range pre {
		if !got[req] || req.Value != 1 {
			t.Fatalf("pre-swap request served by version %v, want 1", req.Value)
		}
	}
	for _, req := range post {
		if !got[req] || req.Value != 2 {
			t.Fatalf("post-swap request served by version %v, want 2", req.Value)
		}
	}
	if b1.served.Load() != 2 || b2.served.Load() != 2 {
		t.Fatalf("split batch served %d/%d, want 2/2", b1.served.Load(), b2.served.Load())
	}
	if b1.mismatches.Load() != 0 || b2.mismatches.Load() != 0 {
		t.Fatal("mixed batch was not split cleanly per version")
	}
	cl.Close()
	srv.Close()
}

// TestSwapUnderLoad drives many concurrent tenants through a sequence of
// hot swaps (run with -race in CI): no evaluation may be dropped, and every
// completion's value must match the version its request was stamped with —
// the no-cross-version-mixing guarantee.
func TestSwapUnderLoad(t *testing.T) {
	backends := make([]*versionBackend, 6)
	for i := range backends {
		backends[i] = &versionBackend{version: int64(i + 1)}
	}
	srv := NewServer(backends[0], ServerConfig{
		Batch:         8,
		FlushDeadline: 200 * time.Microsecond,
	})

	const tenants = 8
	const perTenant = 400
	var wrongValue atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := srv.NewSyncClient()
			defer cl.Close()
			policy := make([]float32, 4)
			for i := 0; i < perTenant; i++ {
				req := AcquireRequest()
				req.Input, req.Policy = []float32{float32(g)}, policy
				cl.Submit(req)
				req.wait()
				// The stamped version and the serving backend must agree.
				if req.Value != float64(req.Version) {
					wrongValue.Add(1)
				}
				ReleaseRequest(req)
			}
		}(g)
	}
	// Swap through versions 2..6 while the tenants hammer the service.
	for v := 1; v < len(backends); v++ {
		time.Sleep(2 * time.Millisecond)
		srv.SwapBackend(backends[v], int64(v+1))
	}
	wg.Wait()
	srv.Close()

	var served, mismatches int64
	for _, b := range backends {
		served += b.served.Load()
		mismatches += b.mismatches.Load()
	}
	if served != tenants*perTenant {
		t.Fatalf("served %d evaluations, want %d (dropped or duplicated work)", served, tenants*perTenant)
	}
	if mismatches != 0 {
		t.Fatalf("%d requests were routed to a backend of another version", mismatches)
	}
	if wrongValue.Load() != 0 {
		t.Fatalf("%d completions carried a value from another version's network", wrongValue.Load())
	}
	if cur := srv.Version(); cur != 6 {
		t.Fatalf("final version = %d, want 6", cur)
	}
}

// TestSwapRetire covers the registry lifecycle rules: a superseded version
// nobody holds retires with the swap and is gone from the registry, a
// superseded version a client still holds retires when that client lets go,
// and swapping in version 0, a nil backend or a live version is a bug caught
// at the call.
func TestSwapRetire(t *testing.T) {
	b1 := &versionBackend{version: 1}
	b2 := &versionBackend{version: 2}
	var retired []int64
	srv := NewServer(b1, ServerConfig{Batch: 1, OnRetire: func(v int64) { retired = append(retired, v) }})
	defer srv.Close()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}

	srv.SwapBackend(b2, 2)
	if _, ok := srv.Pins()[2]; !ok || len(srv.Pins()) != 1 {
		t.Fatalf("registry after swap = %v, want only v2", srv.Pins())
	}
	if len(retired) != 1 || retired[0] != 1 {
		t.Fatalf("OnRetire calls = %v, want [1]", retired)
	}

	holder := srv.NewSyncClient()
	if v := holder.PinCurrent(); v != 2 {
		t.Fatalf("PinCurrent = %d, want 2", v)
	}
	srv.SwapBackend(&versionBackend{version: 3}, 3)
	if vs := srv.Pins(); len(vs) != 2 || vs[2] != 1 || len(retired) != 1 {
		t.Fatalf("registry = %v, retired = %v: v2 retired while a client is pinned to it", vs, retired)
	}
	holder.Close()
	if len(retired) != 2 || retired[1] != 2 {
		t.Fatalf("OnRetire calls = %v, want [1 2] once the last holder closed", retired)
	}

	mustPanic("swap in version 0", func() { srv.SwapBackend(b1, 0) })
	mustPanic("swap in nil backend", func() { srv.SwapBackend(nil, 4) })
	mustPanic("swap in live version again", func() { srv.SwapBackend(b1, 3) })
	if len(retired) != 2 || srv.Version() != 3 {
		t.Fatalf("a rejected call changed the registry: retired %v, current v%d", retired, srv.Version())
	}
}
