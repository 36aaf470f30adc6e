package evaluate

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// lifecycleLedger is the test's own account of who holds what, kept so that
// it can only UNDER-count the server's: a pin is entered after the server
// granted it and struck before the server is asked to drop it. OnRetire
// firing for a version the ledger still shows pinned is therefore a real
// violation, never a test race.
type lifecycleLedger struct {
	t       *testing.T
	srv     *Server
	mu      sync.Mutex
	pinned  map[int64]int
	retired map[int64]int
}

func (l *lifecycleLedger) onRetire(v int64) {
	if cur := l.srv.Version(); cur == v {
		l.t.Errorf("OnRetire(%d) for the current version", v)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.pinned[v]; n > 0 {
		l.t.Errorf("OnRetire(%d) while %d clients are pinned to it", v, n)
	}
	l.retired[v]++
}

// pin enters a granted pin; a grant on a version that already retired means
// the server handed out a dead version.
func (l *lifecycleLedger) pin(v int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retired[v] > 0 {
		l.t.Errorf("pinned version %d after it retired", v)
	}
	l.pinned[v]++
}

func (l *lifecycleLedger) unpin(v int64) {
	if v == 0 {
		return
	}
	l.mu.Lock()
	l.pinned[v]--
	l.mu.Unlock()
}

// TestLifecycleProperty is the model-version lifecycle (see Server) as a
// property under load, for -race: tenants randomly pin to current, unpin,
// close and evaluate, while a trainer swaps in one version after another, half
// of them over a client of its own that still holds the old one. Invariants:
// OnRetire(v) fires exactly once for every superseded version, never for the
// current one and never while a client is pinned to v; no pin is granted on a
// retired version; every completion carries the value of the backend of the
// version it was stamped with, which for a pinned tenant is its pin; and once
// every client is closed only the current version is registered.
func TestLifecycleProperty(t *testing.T) {
	const tenants, opsPerTenant, candidates = 6, 300, 24
	backends := make([]*versionBackend, candidates+2)
	for v := range backends {
		backends[v] = &versionBackend{version: int64(v)}
	}
	led := &lifecycleLedger{t: t, pinned: map[int64]int{}, retired: map[int64]int{}}
	srv := NewServer(backends[1], ServerConfig{
		Batch:         4,
		FlushDeadline: 100 * time.Microsecond,
		OnRetire:      led.onRetire,
	})
	led.srv = srv

	// evalOn submits one request and checks the stamp against the value; pin
	// is the version the tenant holds, 0 for none.
	evalOn := func(cl *Client, pin int64) {
		req := AcquireRequest()
		req.Input, req.Policy = []float32{1}, make([]float32, 2)
		cl.Submit(req)
		req.wait()
		if req.Value != float64(req.Version) {
			t.Errorf("request stamped v%d completed with v%v's value", req.Version, req.Value)
		}
		if pin != 0 && req.Version != pin {
			t.Errorf("tenant pinned to v%d had a request stamped v%d", pin, req.Version)
		}
		ReleaseRequest(req)
	}

	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g + 1)))
			cl, pin := srv.NewSyncClient(), int64(0)
			for i := 0; i < opsPerTenant; i++ {
				switch op := r.Intn(10); {
				case op < 2: // a first pin, or a re-pin that lets go of the old hold
					led.unpin(pin)
					pin = cl.PinCurrent()
					led.pin(pin)
				case op == 2:
					led.unpin(pin)
					cl.Unpin()
					pin = 0
				case op == 3:
					led.unpin(pin)
					cl.Close()
					cl, pin = srv.NewSyncClient(), 0
				default:
					evalOn(cl, pin)
				}
			}
			led.unpin(pin)
			cl.Close()
		}(g)
	}

	// The trainer: versions 2..candidates+1, each swapped in under the
	// tenants' traffic; some while a client of its own still holds the
	// version being superseded, so that version retires at that client's
	// Close rather than at the swap.
	current := int64(1)
	r := rand.New(rand.NewSource(99))
	for v := int64(2); v < int64(len(backends)); v++ {
		var holder *Client
		if r.Intn(2) == 0 {
			holder = srv.NewSyncClient()
			held := holder.PinCurrent()
			led.pin(held)
			evalOn(holder, held)
		}
		srv.SwapBackend(backends[v], v)
		if holder != nil {
			evalOn(holder, current)
			led.unpin(current)
			holder.Close()
		}
		current = v
		time.Sleep(200 * time.Microsecond)
	}
	wg.Wait()

	if got := srv.Version(); got != current {
		t.Fatalf("current version = %d, want %d", got, current)
	}
	if pins := srv.Pins(); len(pins) != 1 || pins[current] != 0 {
		t.Fatalf("after every client closed the registry is %v, want only v%d with no pins", pins, current)
	}
	for v := int64(1); v < int64(len(backends)); v++ {
		want := 1
		if v == current {
			want = 0
		}
		if got := led.retired[v]; got != want {
			t.Errorf("OnRetire(%d) fired %d times, want %d", v, got, want)
		}
		if m := backends[v].mismatches.Load(); m != 0 {
			t.Errorf("backend v%d saw %d requests stamped for another version", v, m)
		}
	}
	srv.Close()
}

// TestClientCloseIdleLaunchesNothing: closing a tenant with nothing
// outstanding must not push co-tenants' partial batch to the device — that
// launch would sit outside all three flush-cause counters and cost the
// co-tenants their fill.
func TestClientCloseIdleLaunchesNothing(t *testing.T) {
	srv := NewServer(&versionBackend{version: 1}, ServerConfig{Batch: 4})
	busy := srv.NewClient(1)
	busy.Submit(&Request{Input: []float32{1}, Policy: make([]float32, 2)})
	before := srv.Stats()

	idle := srv.NewSyncClient()
	idle.Close()
	if srv.Pending() != 1 || srv.Stats() != before {
		t.Fatalf("idle Close launched a co-tenant's batch: pending %d, stats %+v -> %+v", srv.Pending(), before, srv.Stats())
	}

	busy.Close() // this one does have a request outstanding: it flushes
	if srv.Pending() != 0 || srv.Stats().Requests != 1 {
		t.Fatalf("busy Close left its request stranded: pending %d, stats %+v", srv.Pending(), srv.Stats())
	}
	srv.Close()
}
