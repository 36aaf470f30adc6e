package serve

import (
	"runtime"
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// TestServedMoveAllocs pins what a served move costs the heap on the
// serve_churn shape (tictactoe, 64 playouts, tree reuse, a 65,536-entry
// transposition table, 256 sessions, 8 interleaved closed-loop games): once
// the table is warm no move needs the network, so a move is its search, and
// the search allocates nothing per rollout, closed sessions hand their arenas
// to new ones, and what is left is per request. The counts do not move with
// the host's speed.
func TestServedMoveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled arenas and instruments allocation")
	}
	search := mcts.DefaultConfig()
	search.Playouts = 64
	search.ReuseTree = true
	search.Seed = 7
	svc := NewService(Config{
		Game:          games.MustNew("tictactoe"),
		Search:        search,
		MaxSessions:   256,
		TransposeSize: 1 << 16,
		IdleTTL:       -1,
		NewEvaluator:  func(int64, *nn.Network) evaluate.Evaluator { return &evaluate.Random{} },
	})
	defer svc.Close()

	// Eight users, each playing seeded random moves against the engine and
	// starting a new game when one ends; play returns the engine moves made.
	r := rng.New(3)
	type user struct {
		id    string
		legal []int
	}
	users := make([]user, 8)
	play := func(engineMoves int) {
		for n := 0; n < engineMoves; {
			for i := range users {
				u := &users[i]
				if u.id == "" {
					snap, _, err := svc.NewGame(false)
					if err != nil {
						t.Fatal(err)
					}
					u.id, u.legal = snap.ID, snap.Legal
					continue
				}
				snap, ms, err := svc.Move(u.id, u.legal[r.Intn(len(u.legal))])
				if err != nil {
					t.Fatal(err)
				}
				if ms != nil {
					n++
				}
				u.legal = snap.Legal
				if snap.Terminal {
					u.id = ""
				}
			}
		}
	}
	// Warm the table and fill the session budget, so that every new game
	// evicts a finished one.
	play(20000)
	if st := svc.Stats(); st.SessionsEvicted == 0 {
		t.Fatalf("warm-up evicted no session (%d created)", st.SessionsCreated)
	}
	const measured = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	play(measured)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / measured
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("per engine move: %.1f allocations, %.0f bytes", allocs, bytes)
	if allocs > 12 || bytes > 2048 {
		t.Errorf("per engine move: %.1f allocations and %.0f bytes, want <= 12 and <= 2 KiB", allocs, bytes)
	}
}

// TestFinishedGamesHoldNoSearch pins that a finished served game gives back
// its search: one user plays 100 gomoku:9 games in a row against the engine
// (100 playouts, evaluate.Random) and leaves every finished session to the
// budget, which never evicts here. The evaluation cache is off: it is
// bounded, and filling it is not what a finished game holds. If finished
// sessions kept their engines, each would hold its tree arena, about 0.6 MB,
// and one that kept its closed engine, client, sampler and policy scratch
// about 0.012 MB; the live heap may grow by at most 0.002 MB per finished
// game.
func TestFinishedGamesHoldNoSearch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled arenas and instruments allocation")
	}
	search := mcts.DefaultConfig()
	search.Playouts = 100
	search.ReuseTree = true
	search.Seed = 5
	svc := NewService(Config{
		Game:         games.MustNew("gomoku:9"),
		Search:       search,
		IdleTTL:      -1,
		CacheSize:    -1,
		NewEvaluator: func(int64, *nn.Network) evaluate.Evaluator { return &evaluate.Random{} },
	})
	defer svc.Close()
	r := rng.New(9)
	playGames := func(n int) {
		for g := 0; g < n; g++ {
			snap, _, err := svc.NewGame(false)
			if err != nil {
				t.Fatal(err)
			}
			for !snap.Terminal {
				if snap, _, err = svc.Move(snap.ID, snap.Legal[r.Intn(len(snap.Legal))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Two collections: a sync.Pool keeps what one collection finds in it
	// (its victim cache) until the next, so after one the heap can still hold
	// an arena parked in a pool, 0.6 MB that no session owns.
	heap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	playGames(5) // the first arenas, pools and caches
	const games = 100
	before := heap()
	playGames(games)
	after := heap()
	if st := svc.Stats(); st.GamesCompleted != 5+games || st.SessionsEvicted != 0 {
		t.Fatalf("stats %+v: want %d completed games and none evicted", st, 5+games)
	}
	perGame := (after - before) / games
	t.Logf("live heap %.1f -> %.1f MB over %d finished games: %.4f MB per game", before, after, games, perGame)
	if perGame > 0.002 {
		t.Errorf("heap grows %.4f MB per finished game, want <= 0.002", perGame)
	}
}
