package mcts

import (
	"runtime"
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/tree"
)

// TestSearchAllocsFlatInPlayouts pins that a rollout allocates nothing: on
// a table that holds every position no leaf needs the network, and a Search
// then allocates the same at 64 playouts as at 512, on one thread and on a
// shared tree's two.
func TestSearchAllocsFlatInPlayouts(t *testing.T) {
	g := tictactoe.New()
	table := tree.NewTransTable(1 << 16)
	stockTable(table, g.NewInitial(), map[uint64]bool{})
	for _, mk := range []struct {
		name string
		make func(cfg Config) Engine
	}{
		{"serial", func(cfg Config) Engine { return NewSerial(cfg, &evaluate.Random{}) }},
		{"shared2", func(cfg Config) Engine { return NewShared(cfg, 2, &evaluate.Random{}) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			perSearch := func(playouts int) float64 {
				cfg := DefaultConfig()
				cfg.Playouts = playouts
				cfg.TransposeTable = table
				cfg.Seed = 5
				e := mk.make(cfg)
				defer e.Close()
				st := g.NewInitial()
				dist := make([]float32, g.NumActions())
				evals := 0
				allocs := testing.AllocsPerRun(10, func() { evals += e.Search(st, dist).Evaluations })
				if evals != 0 {
					t.Fatalf("%d evaluations on a table holding every position", evals)
				}
				return allocs
			}
			small, large := perSearch(64), perSearch(512)
			t.Logf("allocations per Search: %v at 64 playouts, %v at 512", small, large)
			if small != large {
				t.Fatalf("allocations per Search: %v at 64 playouts, %v at 512; a rollout allocates", small, large)
			}
		})
	}
}

// stockTable stores an evaluation (uniform priors, value 0) for every
// non-terminal position reachable from st.
func stockTable(tt *tree.TransTable, st game.State, seen map[uint64]bool) {
	if st.Terminal() || seen[st.Hash()] {
		return
	}
	seen[st.Hash()] = true
	legal := st.LegalMoves(nil)
	priors := make([]float32, len(legal))
	for i := range priors {
		priors[i] = 1 / float32(len(legal))
	}
	e, _ := tt.Acquire(st.Hash(), st.AppendStateKey(nil))
	e.StoreEval(0, legal, priors)
	for _, a := range legal {
		next := st.Clone()
		next.Play(a)
		stockTable(tt, next, seen)
	}
}

// TestRecycledArenaSearchesLikeFresh pins that arena recycling is invisible
// to search: an engine built right after a dirty engine of the same shape
// was closed — its tree rebased, transposition-linked, terminal-marked —
// searches exactly as one on a never-used arena.
func TestRecycledArenaSearchesLikeFresh(t *testing.T) {
	g := tictactoe.New()
	cfg := goldenCfg()
	eval := &evaluate.Random{}
	// search plays a game of moves moves with a fresh engine, returning
	// every move's distribution and counters and the engine's tree.
	search := func(moves int) ([][]float32, []Stats, *tree.Tree) {
		e := NewSerial(cfg, eval)
		st := g.NewInitial()
		var dists [][]float32
		var stats []Stats
		for mv := 0; mv < moves && !st.Terminal(); mv++ {
			dist := make([]float32, g.NumActions())
			s := e.Search(st, dist)
			s.Duration = 0
			dists, stats = append(dists, dist), append(stats, s)
			a := argmax32(dist)
			e.Advance(a)
			st.Play(a)
		}
		tr := e.Tree()
		e.Close()
		return dists, stats, tr
	}
	runtime.GC() // two collections empty every sync.Pool: the first engine's
	runtime.GC() // arena is a new one
	wantDist, wantStats, _ := search(3)
	recycled := 0
	for attempt := 0; attempt < 5; attempt++ {
		_, _, dirty := search(9) // a whole game, closed: its arena is released
		dists, stats, tr := search(3)
		if tr == dirty {
			recycled++
		}
		for mv := range wantStats {
			if stats[mv] != wantStats[mv] {
				t.Fatalf("attempt %d, move %d: stats %+v, want %+v", attempt, mv, stats[mv], wantStats[mv])
			}
			for a, p := range wantDist[mv] {
				if dists[mv][a] != p {
					t.Fatalf("attempt %d, move %d: visit share of %d is %v, want %v", attempt, mv, a, dists[mv][a], p)
				}
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no closed engine's arena was reused by the next engine of the same shape")
	}
}
