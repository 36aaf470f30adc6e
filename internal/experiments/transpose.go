package experiments

import (
	"fmt"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/stats"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/tree"
)

// TransDemand is one TranspositionDemand measurement: the aggregated
// search stats over every move played, the table's own counters (zero
// when the table was off), and the number of moves searched.
type TransDemand struct {
	Search mcts.Stats
	Table  tree.TransStats
	Moves  int
}

// EvalsPerMove is the headline demand metric: DNN forward passes per
// searched move.
func (d TransDemand) EvalsPerMove() float64 {
	if d.Moves == 0 {
		return 0
	}
	return float64(d.Search.Evaluations) / float64(d.Moves)
}

// TranspositionDemand measures the DNN eval demand of self-play with and
// without transposition sharing: it plays `games` sequential self-play
// games of up to `moves` moves each on g with the serial engine and
// returns the aggregated search stats plus the table's own counters. With
// size > 0 one shared table persists across all games — the fleet
// configuration — so later games are also served positions discovered by
// earlier ones (openings especially). Moves are temperature-sampled for
// the first few plies and greedy afterwards, from a seeded stream, so the
// measurement is reproducible.
func TranspositionDemand(g game.Game, playouts, games, moves, size int, seed uint64) TransDemand {
	cfg := mcts.DefaultConfig()
	cfg.Playouts = playouts
	var tt *tree.TransTable
	if size > 0 {
		tt = tree.NewTransTable(size)
		cfg.TransposeTable = tt
	}
	var d TransDemand
	for gi := 0; gi < games; gi++ {
		cfg.Seed = seed + uint64(gi)
		eng := mcts.NewSerial(cfg, &evaluate.Random{})
		r := rng.New(seed + 1000 + uint64(gi))
		st := g.NewInitial()
		dist := make([]float32, g.NumActions())
		for mv := 0; mv < moves && !st.Terminal(); mv++ {
			s := eng.Search(st, dist)
			d.Search.Add(s)
			d.Moves++
			temp := 0.0
			if mv < 4 {
				temp = 1
			}
			a := train.SampleActionOrLegal(r, dist, temp, st)
			eng.Advance(a)
			st = st.Clone()
			st.Play(a)
		}
		eng.Close()
	}
	if tt != nil {
		d.Table = tt.Stats()
	}
	return d
}

// AblationTranspose reports the eval-demand reduction from the
// transposition table on a set of games: total DNN evaluations for the
// same self-play schedule with the table off and on, the per-move demand,
// and the table's hit rate. The reduction is the paper-style headline for
// the DAG search: transposed lines are served from shared statistics
// instead of re-querying the network.
func AblationTranspose(gs []game.Game, playouts, games, moves, size int) *stats.Table {
	tb := stats.NewTable(fmt.Sprintf("Ablation: transposition table eval demand (%d games x %d moves, %d playouts/move)",
		games, moves, playouts),
		"game", "evals (off)", "evals (on)", "reduction", "evals/move (on)", "trans hits", "hit rate")
	for _, g := range gs {
		off := TranspositionDemand(g, playouts, games, moves, 0, 1)
		on := TranspositionDemand(g, playouts, games, moves, size, 1)
		reduction := 0.0
		if off.Search.Evaluations > 0 {
			reduction = 1 - float64(on.Search.Evaluations)/float64(off.Search.Evaluations)
		}
		tb.AddRow(g.Name(), off.Search.Evaluations, on.Search.Evaluations,
			fmt.Sprintf("%.1f%%", 100*reduction),
			fmt.Sprintf("%.1f", on.EvalsPerMove()),
			on.Search.TransHits,
			fmt.Sprintf("%.2f", on.Table.HitRate()))
	}
	return tb
}
