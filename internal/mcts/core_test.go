package mcts

import (
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/connect4"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
)

// TestPhaseAccounting pins the Profile contract of the shared rollout: every
// engine reports every phase it runs, on every path. The second tictactoe
// game of a session with a private transposition table expands nearly all
// its leaves from the table; those expansions are work and must show up in
// ExpandTime (the serial and shared rollouts used to skip the clock on the
// hit path, and leaf-parallel reported no phases at all).
func TestPhaseAccounting(t *testing.T) {
	cfg := testCfg(300)
	cfg.Profile = true
	cfg.TransposeSize = 1 << 14
	eval := &evaluate.Random{}
	pool := evaluate.NewPool(eval, 1)
	defer pool.Close()
	pool2 := evaluate.NewPool(eval, 2)
	defer pool2.Close()
	engines := []Engine{
		NewSerial(cfg, eval),
		NewShared(cfg, 1, eval),
		NewLocal(cfg, pool, 1),
		NewLeafParallel(cfg, 2, pool2),
	}
	for _, e := range engines {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			dist := make([]float32, 9)
			allHits := 0
			for g := 0; g < 2; g++ {
				st := tictactoe.New().NewInitial()
				for !st.Terminal() {
					s := e.Search(st, dist)
					if s.SelectTime <= 0 || s.BackupTime <= 0 {
						t.Fatalf("game %d: select %v, backup %v: phase not reported", g, s.SelectTime, s.BackupTime)
					}
					if sum := s.SelectTime + s.EvalTime + s.ExpandTime + s.BackupTime; sum > s.Duration {
						t.Fatalf("game %d: phases sum to %v, more than the search's %v", g, sum, s.Duration)
					}
					if s.Expansions > 0 && s.TransHits == s.Expansions {
						allHits++
						if s.ExpandTime <= 0 {
							t.Fatalf("game %d: %d table-hit expansions took %v", g, s.Expansions, s.ExpandTime)
						}
					}
					a := argmax32(dist)
					e.Advance(a)
					st.Play(a)
				}
				e.Advance(DiscardTree)
			}
			if allHits == 0 {
				t.Fatal("no search expanded from the table alone; the test exercises nothing")
			}
		})
	}
}

// inlineAsync evaluates at Submit, on the caller's thread, with a uniform
// policy, so every Wait finds its request already done: an Async that itself
// allocates nothing, so AllocsPerRun sees the engine alone.
type inlineAsync struct{}

func (inlineAsync) Submit(req *evaluate.Request) {
	for i := range req.Policy {
		req.Policy[i] = 1 / float32(len(req.Policy))
	}
	req.Value = 0
}
func (inlineAsync) Wait(*evaluate.Request) {}
func (inlineAsync) Close()                 {}

// TestLeafParallelAllocs: the K-fold fan-out reuses K engine-lifetime
// requests, so a warm leaf-parallel search allocates no more per playout
// than the local engine does (both pay the per-rollout state clone).
func TestLeafParallelAllocs(t *testing.T) {
	const k, playouts = 4, 200
	st := connect4.New().NewInitial()
	dist := make([]float32, st.NumActions())
	perPlayout := func(e Engine) float64 {
		e.Search(st, dist) // warm: size the buffers and the tree
		return testing.AllocsPerRun(5, func() { e.Search(st, dist) }) / playouts
	}
	local := perPlayout(NewLocal(testCfg(playouts), inlineAsync{}, k))
	leaf := perPlayout(NewLeafParallel(testCfg(playouts), k, inlineAsync{}))
	if leaf > local {
		t.Fatalf("leaf-parallel allocates %.2f per playout, local %.2f", leaf, local)
	}
}
