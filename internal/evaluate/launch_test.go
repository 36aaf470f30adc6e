package evaluate

import (
	"sync"
	"testing"
	"testing/quick"
)

// The batcher is the Server's own state, so these tests drive it through
// Submit, BeginSearch/EndSearch, Flush and Wait and read it back through
// Stats and Pending.

// submitN submits n fresh requests through cl and returns them.
func submitN(cl *Client, n int) []*Request {
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{}
		cl.Submit(reqs[i])
	}
	return reqs
}

// TestServerFlushesAtThreshold: every Batch-th submit launches the buffer,
// in submission order; Flush launches the remainder, and a Flush over an
// empty buffer launches nothing.
func TestServerFlushesAtThreshold(t *testing.T) {
	srv := NewServer(&recordingBackend{}, ServerConfig{Batch: 3})
	cl := srv.NewSyncClient()
	reqs := submitN(cl, 7)
	if st := srv.Stats(); st.Batches != 2 || st.ThresholdFlushes != 2 || srv.Pending() != 1 {
		t.Fatalf("stats %+v, %d pending: want two threshold launches and one buffered", st, srv.Pending())
	}
	srv.Flush()
	srv.Flush() // empty: a no-op
	cl.Close()
	srv.Close()
	want := ServerStats{Batches: 3, Requests: 7, ThresholdFlushes: 2}
	if st := srv.Stats(); st != want || srv.Pending() != 0 {
		t.Fatalf("stats %+v, %d pending, want %+v", st, srv.Pending(), want)
	}
	// recordingBackend writes each request's index within its batch.
	for i, req := range reqs {
		if req.Value != float64(i%3) {
			t.Fatalf("request %d ran at batch index %v, want %d", i, req.Value, i%3)
		}
	}
}

// TestClientWaitPushesOnlyItsOwnBatch: on a client that holds no slots,
// waiting on a request already launched pushes nothing; waiting on a
// buffered one pushes its batch, and the push is counted under no launch
// condition.
func TestClientWaitPushesOnlyItsOwnBatch(t *testing.T) {
	srv := NewServer(&recordingBackend{}, ServerConfig{Batch: 3})
	cl := srv.NewSyncClient()
	reqs := submitN(cl, 5) // 0..2 launch at the threshold, 3 and 4 stay buffered
	cl.Wait(reqs[1])
	if srv.Pending() != 2 || srv.Stats().Batches != 1 {
		t.Fatalf("Wait on a launched request pushed the buffer: %d pending, stats %+v", srv.Pending(), srv.Stats())
	}
	cl.Wait(reqs[4])
	want := ServerStats{Batches: 2, Requests: 5, ThresholdFlushes: 1}
	if st := srv.Stats(); st != want || srv.Pending() != 0 {
		t.Fatalf("stats %+v, %d pending, want %+v", st, srv.Pending(), want)
	}
	cl.Close()
	srv.Close()
}

// TestNewServerPanics: a server without a backend is refused; a threshold
// below one is one.
func TestNewServerPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil backend did not panic")
			}
		}()
		NewServer(nil, ServerConfig{Batch: 1})
	}()
	srv := NewServer(&recordingBackend{}, ServerConfig{})
	defer srv.Close()
	if srv.Batch() != 1 {
		t.Fatalf("Batch() = %d for a zero threshold, want 1", srv.Batch())
	}
}

// TestServerConcurrentSubmitsLoseNothing: eight tenants submitting at once
// hand every request to the backend exactly once, and every full buffer is
// a threshold launch.
func TestServerConcurrentSubmitsLoseNothing(t *testing.T) {
	const workers, per, batch = 8, 1000, 16
	backend := &recordingBackend{}
	srv := NewServer(backend, ServerConfig{Batch: batch})
	clients := make([]*Client, workers)
	reqs := make([][]*Request, workers)
	var wg sync.WaitGroup
	for w := range clients {
		clients[w] = srv.NewSyncClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs[w] = submitN(clients[w], per)
		}()
	}
	wg.Wait()
	srv.Flush()
	for w, cl := range clients {
		cl.Close() // waits until all of its requests are delivered
		for i, req := range reqs[w] {
			select {
			case <-req.done:
			default:
				t.Fatalf("tenant %d: request %d not delivered", w, i)
			}
		}
	}
	srv.Close()
	_, sizes := backend.snapshot()
	ran := 0
	for _, k := range sizes {
		ran += k
	}
	if ran != workers*per {
		t.Fatalf("backend ran %d requests, want %d (lost requests)", ran, workers*per)
	}
	st := srv.Stats()
	if st.Requests != workers*per || st.ThresholdFlushes < workers*per/batch {
		t.Fatalf("stats %+v: want %d requests and at least %d threshold launches", st, workers*per, workers*per/batch)
	}
}

// TestServerPropertyNoneLostAnyThreshold: whatever the threshold and the
// number of requests, threshold launches plus one push hand every request to
// the backend exactly once.
func TestServerPropertyNoneLostAnyThreshold(t *testing.T) {
	if err := quick.Check(func(thrRaw uint8, nRaw uint16) bool {
		thr := int(thrRaw)%20 + 1
		n := int(nRaw) % 500
		backend := &recordingBackend{}
		srv := NewServer(backend, ServerConfig{Batch: thr})
		cl := srv.NewSyncClient()
		submitN(cl, n)
		srv.Flush()
		cl.Close()
		srv.Close()
		_, sizes := backend.snapshot()
		ran := 0
		for _, k := range sizes {
			ran += k
		}
		st := srv.Stats()
		return ran == n && st.Requests == int64(n) && st.Batches == int64(len(sizes)) &&
			st.ThresholdFlushes == int64(n/thr)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumLaunchesWhenEverySlotHasSubmitted: with three slots open the
// third request launches the buffer; once every slot is given back the
// quorum is off and a request waits for the threshold or a push.
func TestQuorumLaunchesWhenEverySlotHasSubmitted(t *testing.T) {
	srv := NewServer(&recordingBackend{}, ServerConfig{Batch: 8})
	a, b := srv.NewSyncClient(), srv.NewSyncClient()
	a.BeginSearch(1)
	b.BeginSearch(2)
	submitN(a, 1)
	submitN(b, 1)
	if st := srv.Stats(); st.Batches != 0 {
		t.Fatalf("stats %+v: launched with one slot still to submit", st)
	}
	submitN(b, 1) // third of three slots: nothing can still arrive
	if st := srv.Stats(); st != (ServerStats{Batches: 1, Requests: 3, QuorumFlushes: 1}) {
		t.Fatalf("stats %+v, want one quorum launch of 3", st)
	}
	a.EndSearch(1)
	b.EndSearch(2)
	submitN(a, 1) // nobody registered: back to the threshold only
	if st := srv.Stats(); st.Batches != 1 || srv.Pending() != 1 {
		t.Fatalf("an unregistered submit launched: stats %+v, %d pending", st, srv.Pending())
	}
	a.Close()
	b.Close()
	srv.Close()
}

// TestQuorumEndSearchReevaluates: giving back a slot that will never submit
// launches the buffer the others filled; giving back the rest over an empty
// buffer launches nothing.
func TestQuorumEndSearchReevaluates(t *testing.T) {
	srv := NewServer(&recordingBackend{}, ServerConfig{Batch: 8})
	cl := srv.NewSyncClient()
	cl.BeginSearch(3)
	submitN(cl, 2)
	cl.EndSearch(1)
	if st := srv.Stats(); st != (ServerStats{Batches: 1, Requests: 2, QuorumFlushes: 1}) {
		t.Fatalf("stats %+v, want one quorum launch of 2", st)
	}
	cl.EndSearch(2)
	if st := srv.Stats(); st.Batches != 1 {
		t.Fatalf("stats %+v: EndSearch over an empty buffer launched", st)
	}
	cl.Close()
	srv.Close()
}

// TestQuorumThresholdWinsTies: a buffer that meets the threshold and the
// quorum at once is a threshold launch.
func TestQuorumThresholdWinsTies(t *testing.T) {
	srv := NewServer(&recordingBackend{}, ServerConfig{Batch: 2})
	cl := srv.NewSyncClient()
	cl.BeginSearch(2)
	submitN(cl, 2)
	if st := srv.Stats(); st != (ServerStats{Batches: 1, Requests: 2, ThresholdFlushes: 1}) {
		t.Fatalf("stats %+v, want the full batch counted as a threshold launch", st)
	}
	cl.EndSearch(2)
	cl.Close()
	srv.Close()
}

// TestQuorumEndSearchWithoutBeginSearchPanics: a tenant cannot give back
// more slots than are open.
func TestQuorumEndSearchWithoutBeginSearchPanics(t *testing.T) {
	for name, begin := range map[string]int{"no BeginSearch": 0, "more than begun": 1} {
		func() {
			srv := NewServer(&recordingBackend{}, ServerConfig{Batch: 2})
			defer srv.Close()
			cl := srv.NewSyncClient()
			cl.BeginSearch(begin)
			defer func() {
				if recover() == nil {
					t.Errorf("%s: EndSearch(%d) did not panic", name, begin+1)
				}
			}()
			cl.EndSearch(begin + 1)
		}()
	}
}

// TestQuorumConcurrentTenants: lock-step tenants with one slot each, which
// never push; every batch is a quorum launch of one request per tenant.
func TestQuorumConcurrentTenants(t *testing.T) {
	const tenants, rounds = 4, 300
	backend := &recordingBackend{}
	srv := NewServer(backend, ServerConfig{Batch: 2 * tenants})
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		cl := srv.NewSyncClient()
		cl.BeginSearch(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cl.Evaluate(nil, nil)
			}
			cl.EndSearch(1)
			cl.Close()
		}()
	}
	wg.Wait()
	srv.Close()
	if st := srv.Stats(); st != (ServerStats{Batches: rounds, Requests: tenants * rounds, QuorumFlushes: rounds}) {
		t.Fatalf("stats %+v, want %d quorum launches only", st, rounds)
	}
	_, sizes := backend.snapshot()
	for i, k := range sizes {
		if k != tenants {
			t.Fatalf("batch %d held %d requests, want one per tenant (%d)", i, k, tenants)
		}
	}
}

// TestServerStatsSnapshotIsConsistent: the launch counters are one snapshot
// — a reader racing four evaluating tenants never sees more cause-attributed
// launches than launches, and every request is counted once. The tenants
// hold no slots, so each pushes its own request when the threshold has not
// launched it.
func TestServerStatsSnapshotIsConsistent(t *testing.T) {
	const tenants, calls = 4, 5000
	srv := NewServer(&EvaluatorBackend{Eval: &Random{}, Workers: 2},
		ServerConfig{Batch: 2, MaxOutstanding: 64})
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		cl := srv.NewSyncClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			input, policy := make([]float32, 8), make([]float32, 4)
			for k := 0; k < calls; k++ {
				input[0] = float32(k)
				cl.Evaluate(input, policy)
			}
			cl.Close()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	reads, bad := 0, 0
	var first ServerStats
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		st := srv.Stats()
		if st.ThresholdFlushes+st.QuorumFlushes > st.Batches {
			if bad == 0 {
				first = st
			}
			bad++
		}
	}
	srv.Close()
	if bad > 0 {
		t.Fatalf("%d of %d snapshots had more cause-attributed launches than launches, first %+v", bad, reads, first)
	}
	if st := srv.Stats(); st.Requests != tenants*calls {
		t.Fatalf("stats %+v: want %d requests", st, tenants*calls)
	}
}
