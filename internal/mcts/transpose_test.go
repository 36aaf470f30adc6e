package mcts

import (
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/hex"
	"github.com/parmcts/parmcts/internal/game/othello"
	"github.com/parmcts/parmcts/internal/tree"
)

// TestFleetSharedTableConverges checks the fleet topology: two engines
// configured with ONE shared TransposeTable pool their demand — the second
// engine searching the same opening is served evaluations the first one
// already bought, so its per-search eval count drops.
func TestFleetSharedTableConverges(t *testing.T) {
	g := othello.NewSized(6)
	tt := tree.NewTransTable(1 << 12)
	mk := func(seed uint64) *Serial {
		cfg := DefaultConfig()
		cfg.Playouts = 120
		cfg.Seed = seed
		cfg.TransposeTable = tt
		return NewSerial(cfg, &evaluate.Random{})
	}
	a, b := mk(1), mk(2)
	defer a.Close()
	defer b.Close()
	dist := make([]float32, g.NumActions())
	sa := a.Search(g.NewInitial(), dist)
	sb := b.Search(g.NewInitial(), dist)
	if sb.Evaluations >= sa.Evaluations {
		t.Fatalf("second engine evaluated %d >= first engine's %d; shared table unused",
			sb.Evaluations, sa.Evaluations)
	}
	if sb.TransHits == 0 {
		t.Fatal("second engine recorded no transposition hits")
	}
	if tt.OutstandingVirtualLoss() != 0 {
		t.Fatal("shared VL outstanding after both searches")
	}
}

// transEquivCfg is equivCfg plus a private transposition table per engine:
// the DAG search must preserve the concurrency-1 cross-engine equivalence,
// because every engine runs the identical probe sequence (probe → attach →
// load-or-evaluate → expand → backup) against its own table.
func transEquivCfg(playouts int) Config {
	cfg := equivCfg(playouts)
	cfg.TransposeSize = 1 << 12
	return cfg
}

// TestEnginesIdenticalOnOthelloTransposed extends the cross-engine
// equivalence check to transposition-aware search: Serial, Shared, Local
// and LeafParallel at concurrency 1 with private tables must stay bitwise
// move-identical over an Othello game, AND the serial reference must
// actually serve positions from its table (the scenario transposes).
func TestEnginesIdenticalOnOthelloTransposed(t *testing.T) {
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
		// evalFactor: leaf-parallel fans each miss out to K evaluators and
		// counts all K, so its demand is a fixed multiple of serial's.
		evalFactor int
	}{
		{"serial", NewSerial(transEquivCfg(playouts), eval), 1},
		{"shared-1", NewShared(transEquivCfg(playouts), 1, eval), 1},
		{"local-1", NewLocal(transEquivCfg(playouts), pool, 1), 1},
		{"leaf-parallel-2", NewLeafParallel(transEquivCfg(playouts), 2, pool2), 2},
	}
	defer func() {
		for _, tc := range engines {
			tc.e.Close()
		}
	}()

	st := g.NewInitial()
	ref := make([]float32, g.NumActions())
	dist := make([]float32, g.NumActions())
	totalHits := 0
	for ply := 0; ply < 24 && !st.Terminal(); ply++ {
		refStats := engines[0].e.Search(st, ref)
		totalHits += refStats.TransHits
		for _, tc := range engines[1:] {
			s := tc.e.Search(st, dist)
			for a := range ref {
				if dist[a] != ref[a] {
					t.Fatalf("ply %d: %s dist[%d] = %v, serial %v",
						ply, tc.name, a, dist[a], ref[a])
				}
			}
			if s.TransHits != refStats.TransHits {
				t.Fatalf("ply %d: %s trans hits %d != serial %d",
					ply, tc.name, s.TransHits, refStats.TransHits)
			}
			if s.Evaluations != refStats.Evaluations*tc.evalFactor {
				t.Fatalf("ply %d: %s evaluations %d != serial %d x%d",
					ply, tc.name, s.Evaluations, refStats.Evaluations, tc.evalFactor)
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
	if totalHits == 0 {
		t.Fatal("no transposition hits over the whole game; the DAG path was never exercised")
	}
}

// measureDemand plays a short deterministic self-play stretch with the
// serial engine and returns the aggregated stats with the table off and on.
func measureDemand(t *testing.T, g game.Game, size int) (off, on Stats) {
	t.Helper()
	for _, tableSize := range []int{0, size} {
		cfg := DefaultConfig()
		cfg.Playouts = 96
		cfg.Seed = 11
		cfg.TransposeSize = tableSize
		eng := NewSerial(cfg, &evaluate.Random{})
		st := g.NewInitial()
		dist := make([]float32, g.NumActions())
		var agg Stats
		for mv := 0; mv < 12 && !st.Terminal(); mv++ {
			agg.Add(eng.Search(st, dist))
			a := argmax32(dist)
			eng.Advance(a)
			st = st.Clone()
			st.Play(a)
		}
		eng.Close()
		if tableSize == 0 {
			off = agg
		} else {
			on = agg
		}
	}
	return off, on
}

// TestTransposeReducesEvalDemand is the tentpole's effect measured at the
// engine level: the identical search schedule with the table enabled must
// require strictly fewer DNN evaluations — transposed lines are served from
// the table — on games that genuinely transpose (Othello, Hex).
func TestTransposeReducesEvalDemand(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    game.Game
	}{
		{"othello", othello.NewSized(6)},
		{"hex", hex.NewSized(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off, on := measureDemand(t, tc.g, 1<<12)
			if on.TransHits == 0 {
				t.Fatal("no transposition hits with the table on")
			}
			if on.Evaluations >= off.Evaluations {
				t.Fatalf("evaluations with table = %d, without = %d; want a reduction",
					on.Evaluations, off.Evaluations)
			}
			if frac := on.TransposeFraction(); frac <= 0 || frac >= 1 {
				t.Fatalf("TransposeFraction = %v, want in (0,1)", frac)
			}
		})
	}
}
