package mcts

import (
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/othello"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tree"
)

// equivCfg is the scheduling-free configuration under which every engine
// must reproduce the serial search exactly: one in-flight rollout, no
// virtual-loss influence (VLNone — including the parent-visit term, see
// tree.SelectChild), no root noise, warm trees enabled.
func equivCfg(playouts int) Config {
	cfg := DefaultConfig()
	cfg.Playouts = playouts
	cfg.Tree.VLMode = tree.VLNone
	cfg.ReuseTree = true
	cfg.Seed = 42
	return cfg
}

// TestEnginesIdenticalOnOthello is the cross-engine equivalence check on
// the pass-move scenario: Serial, Shared, Local and LeafParallel at
// concurrency 1 with a deterministic evaluator must produce bitwise
// identical root visit distributions on every move of an Othello game —
// through flips, forced passes and warm (rebased) trees alike. It extends
// the warm-engine invariants of the persistent-session layer to a game
// whose legal-move set is not monotone.
func TestEnginesIdenticalOnOthello(t *testing.T) {
	g := othello.NewSized(6)
	const playouts = 160
	eval := &evaluate.Random{}
	pool := evaluate.NewPool(eval, 1)
	defer pool.Close()
	pool2 := evaluate.NewPool(eval, 1)
	defer pool2.Close()

	engines := []struct {
		name string
		e    Engine
	}{
		{"serial", NewSerial(equivCfg(playouts), eval)},
		{"shared-1", NewShared(equivCfg(playouts), 1, eval)},
		{"local-1", NewLocal(equivCfg(playouts), pool, 1)},
		{"leaf-parallel-2", NewLeafParallel(equivCfg(playouts), 2, pool2)},
	}
	defer func() {
		for _, tc := range engines {
			tc.e.Close()
		}
	}()

	st := g.NewInitial()
	ref := make([]float32, g.NumActions())
	dist := make([]float32, g.NumActions())
	warmMoves := 0
	for ply := 0; ply < 24 && !st.Terminal(); ply++ {
		refStats := engines[0].e.Search(st, ref)
		checkDistribution(t, st, ref)
		if refStats.Playouts+refStats.ReusedVisits != playouts {
			t.Fatalf("ply %d: serial playouts %d + reused %d != %d",
				ply, refStats.Playouts, refStats.ReusedVisits, playouts)
		}
		if refStats.ReusedVisits > 0 {
			warmMoves++
		}
		for _, tc := range engines[1:] {
			s := tc.e.Search(st, dist)
			for a := range ref {
				if dist[a] != ref[a] {
					t.Fatalf("ply %d: %s dist[%d] = %v, serial %v",
						ply, tc.name, a, dist[a], ref[a])
				}
			}
			if s.Playouts != refStats.Playouts || s.ReusedVisits != refStats.ReusedVisits {
				t.Fatalf("ply %d: %s budget (%d, %d) != serial (%d, %d)",
					ply, tc.name, s.Playouts, s.ReusedVisits,
					refStats.Playouts, refStats.ReusedVisits)
			}
		}
		action := argmax32(ref)
		st.Play(action)
		if !st.Terminal() {
			for _, tc := range engines {
				tc.e.Advance(action)
			}
		}
	}
	if warmMoves == 0 {
		t.Fatal("no move ran on a warm tree; the equivalence never covered the rebase path")
	}
}

// forcedPassState returns a reachable Othello position whose mover has no
// placement (legal moves == [pass]), found by seeded random play.
func forcedPassState(t *testing.T) game.State {
	t.Helper()
	g := othello.NewSized(4)
	for seed := uint64(1); seed <= 80; seed++ {
		st := g.NewInitial().(*othello.State)
		r := rng.New(seed)
		for !st.Terminal() {
			legal := st.LegalMoves(nil)
			if len(legal) == 1 && legal[0] == st.PassAction() {
				return st
			}
			st.Play(legal[r.Intn(len(legal))])
		}
	}
	t.Fatal("no forced-pass position found")
	return nil
}

// TestSearchForcedPassRoot pins the single-child root the pass mechanics
// create: every engine must put the whole distribution on the pass action,
// spend its full budget without panicking (tree.Expand with one action),
// and keep the budget arithmetic intact.
func TestSearchForcedPassRoot(t *testing.T) {
	st := forcedPassState(t)
	pass := st.(*othello.State).PassAction()
	eval := &evaluate.Random{}
	pool := evaluate.NewPool(eval, 2)
	defer pool.Close()
	pool2 := evaluate.NewPool(eval, 2)
	defer pool2.Close()
	engines := []struct {
		name string
		e    Engine
	}{
		{"serial", NewSerial(equivCfg(80), eval)},
		{"shared", NewShared(equivCfg(80), 2, eval)},
		{"local", NewLocal(equivCfg(80), pool, 2)},
		{"leaf-parallel", NewLeafParallel(equivCfg(80), 2, pool2)},
	}
	for _, tc := range engines {
		dist := make([]float32, st.NumActions())
		stats := tc.e.Search(st.Clone(), dist)
		if dist[pass] != 1 {
			t.Errorf("%s: dist[pass] = %v, want 1 (forced pass)", tc.name, dist[pass])
		}
		checkDistribution(t, st, dist)
		if stats.Playouts+stats.ReusedVisits != 80 {
			t.Errorf("%s: playouts %d + reused %d != 80", tc.name, stats.Playouts, stats.ReusedVisits)
		}
		tc.e.Close()
	}
}

// TestWarmSessionThroughForcedPass drives a persistent session across a
// forced-pass boundary: searching the pre-pass position, advancing through
// the pass, and searching again must keep the warm tree (ReuseFraction > 0
// on Othello despite pass moves — the session layer treats pass as an
// ordinary child promotion).
func TestWarmSessionThroughForcedPass(t *testing.T) {
	const playouts = 200
	g := othello.NewSized(4)
	for seed := uint64(1); seed <= 80; seed++ {
		st := g.NewInitial().(*othello.State)
		r := rng.New(seed)
		var prePass []int
		for !st.Terminal() {
			legal := st.LegalMoves(nil)
			if len(legal) == 1 && legal[0] == st.PassAction() && st.Moves >= 2 {
				break
			}
			prePass = append(prePass, legal[r.Intn(len(legal))])
			st.Play(prePass[len(prePass)-1])
		}
		if st.Terminal() || len(prePass) < 1 || !st.Legal(st.PassAction()) {
			continue
		}
		// Replay to one ply BEFORE the forced pass and run the session
		// through it: search, play, advance, search the pass position,
		// pass, advance, search again.
		cur := g.NewInitial()
		for _, a := range prePass[:len(prePass)-1] {
			cur.Play(a)
		}
		e := NewSerial(reuseCfg(playouts), &evaluate.Random{})
		dist := make([]float32, g.NumActions())
		e.Search(cur, dist)
		last := prePass[len(prePass)-1]
		cur.Play(last)
		e.Advance(last)

		passPos := cur.(*othello.State)
		stats := e.Search(passPos, dist)
		if stats.ReusedVisits == 0 {
			t.Fatalf("seed %d: no reuse entering the forced-pass position", seed)
		}
		if dist[passPos.PassAction()] != 1 {
			t.Fatalf("seed %d: warm forced-pass dist = %v", seed, dist[passPos.PassAction()])
		}
		cur.Play(passPos.PassAction())
		if cur.Terminal() {
			continue
		}
		e.Advance(passPos.PassAction())
		stats = e.Search(cur, dist)
		checkDistribution(t, cur, dist)
		if stats.ReusedVisits == 0 {
			t.Fatalf("seed %d: advancing through the pass lost the warm subtree", seed)
		}
		if stats.ReuseFraction() <= 0 {
			t.Fatalf("seed %d: reuse fraction %v", seed, stats.ReuseFraction())
		}
		return // one full pass-boundary exercise is the point
	}
	t.Skip("no usable forced-pass trajectory found (seed set exhausted)")
}
