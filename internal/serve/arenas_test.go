package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// playOut moves for the user until the game ends, or until the service
// refuses a move; it returns the last error.
func playOut(svc *Service, id string) error {
	for {
		snap, err := svc.Get(id)
		if err != nil || snap.Terminal {
			return err
		}
		if _, _, err := svc.Move(id, snap.Legal[0]); err != nil {
			return err
		}
	}
}

// waitArenas polls /statsz's search_arenas until it reads want: an evicted
// session gives its engine back on a goroutine of its own.
func waitArenas(t *testing.T, svc *Service, want int64) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); svc.Stats().SearchArenas != want; {
		if time.Now().After(end) {
			t.Fatalf("search_arenas = %d, want %d", svc.Stats().SearchArenas, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSearchArenasFollowLiveGames: N live games hold N engines; a finished
// game gives its engine back, a rolled-back create holds none, and evicting
// and draining the rest give theirs back.
func TestSearchArenasFollowLiveGames(t *testing.T) {
	const n = 4
	cfg := testConfig(t)
	cfg.MaxConcurrentMoves = 1
	svc := NewService(cfg)
	defer svc.Close()
	newGames := func() []string {
		ids := make([]string, n)
		for i := range ids {
			snap, _, err := svc.NewGame(i%2 == 1)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = snap.ID
		}
		if got := svc.Stats().SearchArenas; got != n {
			t.Fatalf("%d live games: search_arenas = %d", n, got)
		}
		return ids
	}
	ids := newGames()
	svc.admit <- struct{}{} // the one admission token: an engine-first create is rolled back
	if _, _, err := svc.NewGame(true); err != ErrSaturated {
		t.Fatalf("engine-first create with no admission token: %v, want ErrSaturated", err)
	}
	<-svc.admit
	if got := svc.Stats().SearchArenas; got != n {
		t.Fatalf("after a rolled-back create: search_arenas = %d, want %d", got, n)
	}
	if err := playOut(svc, ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().SearchArenas; got != n-1 {
		t.Fatalf("one game finished of %d: search_arenas = %d", n, got)
	}
	svc.mu.Lock()
	for svc.evictLRULocked() {
	}
	svc.mu.Unlock()
	waitArenas(t, svc, 0)

	newGames()
	svc.Close()
	if got := svc.Stats().SearchArenas; got != 0 {
		t.Fatalf("drained: search_arenas = %d", got)
	}
}

// TestSearchArenasUnderChurn: concurrent users create games (half of them
// engine-first, which a saturated service rolls back), play them out or
// abandon them on a 429, and evict each other's under a budget of three
// sessions. search_arenas never reads negative and reads 0 once the service
// has drained.
func TestSearchArenasUnderChurn(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxSessions = 3
	cfg.MaxConcurrentMoves = 1
	cfg.Search.Playouts = 64
	svc := NewService(cfg)
	stop := make(chan struct{})
	var lowest atomic.Int64
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			if got := svc.Stats().SearchArenas; got < lowest.Load() {
				lowest.Store(got)
			}
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	var users sync.WaitGroup
	for u := 0; u < 4; u++ {
		users.Add(1)
		go func() {
			defer users.Done()
			for i := 0; i < 16; i++ {
				if snap, _, err := svc.NewGame((u+i)%2 == 0); err == nil {
					playOut(svc, snap.ID)
				}
			}
		}()
	}
	users.Wait()
	close(stop)
	reader.Wait()
	svc.Close()
	waitArenas(t, svc, 0)
	if low := lowest.Load(); low < 0 {
		t.Fatalf("search_arenas read %d under churn", low)
	}
	st := svc.Stats()
	t.Logf("churn: %d games, %d evictions, %d rejections", st.SessionsCreated, st.SessionsEvicted, st.MovesRejected)
}
