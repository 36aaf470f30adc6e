// Command bookgen precomputes an offline opening book: it searches every
// opening position up to -plies with a serial engine over a shared
// transposition table (sibling opening lines that transpose into the same
// position are searched once) and records each position's root visit
// distribution. Self-play binaries load the book with -book and serve the
// recorded distributions for the first plies without running a search.
//
// Usage:
//
//	bookgen -out book.json [-game othello] [-playouts 400] [-plies 4]
//	        [-min-visit-frac 0.05] [-transpose on:65536] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tree"
)

func main() {
	var (
		gameSpec  = games.Flag(flag.CommandLine, "othello", "")
		playouts  = mcts.PlayoutsFlag(flag.CommandLine, 400, " (spent once on each book position)")
		plies     = flag.Int("plies", 4, "book depth: positions up to this ply are recorded")
		minFrac   = flag.Float64("min-visit-frac", 0.05, "descend only into replies holding at least this visit fraction")
		transpose = tree.TransposeFlag(flag.CommandLine, "on", "")
		fullNet   = nn.FullNetFlag(flag.CommandLine, "")
		modelPath = flag.String("model", "", "evaluate with this saved network (default: fresh network)")
		outPath   = flag.String("out", "book.json", "write the book here")
		seed      = rng.SeedFlag(flag.CommandLine, "")
	)
	flag.Parse()

	g := games.ResolveFlag("bookgen", *gameSpec, "othello")
	c, h, w := g.EncodedShape()
	var net *nn.Network
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bookgen:", err)
			os.Exit(1)
		}
		net, err = nn.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bookgen:", err)
			os.Exit(1)
		}
		if err := checkpoint.CheckGame(net, "", g); err != nil {
			fmt.Fprintf(os.Stderr, "bookgen: model %s: %v (pass -game)\n", *modelPath, err)
			os.Exit(1)
		}
	} else {
		net = nn.MustNew(nn.ConfigFor(*fullNet, c, h, w, g.NumActions()), rng.New(*seed))
	}

	cfg := mcts.DefaultConfig()
	cfg.Playouts = *playouts
	cfg.Seed = *seed
	cfg.TransposeSize = tree.ResolveTransposeFlag("bookgen", *transpose)

	bcfg := mcts.DefaultBookConfig()
	bcfg.MaxPly = *plies
	bcfg.MinVisitFrac = float32(*minFrac)

	book, stats := mcts.BuildBook(g, cfg, evaluate.NewNN(net), bcfg)
	book.Game = *gameSpec

	f, err := os.Create(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bookgen:", err)
		os.Exit(1)
	}
	if err := book.Save(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "bookgen:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bookgen:", err)
		os.Exit(1)
	}
	fmt.Printf("book: %d positions to ply %d in %s (%d playouts each)\n",
		book.Len(), book.MaxPly, *outPath, *playouts)
	fmt.Printf("build: %d evaluations, %d transposition hits (%.0f%% of eval demand deduped)\n",
		stats.Evaluations, stats.TransHits, 100*stats.TransposeFraction())
}
