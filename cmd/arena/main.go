// Command arena measures game-playing strength: it runs a round-robin
// among the search schemes (serial, shared tree, local tree, root-parallel,
// leaf-parallel) at equal playout budgets and reports scores and Elo
// estimates — the playable form of the paper's Section 5.5 argument that
// parallelisation does not degrade decision quality. With -model it gates
// a saved network against a fresh one instead.
//
// With -ckpt it audits a checkpoint store from cmd/train: the latest
// committed version plays the previous one, re-checking the promotion that
// the training service's arena gate accepted.
//
// Usage:
//
//	arena [-game othello] [-games 10] [-playouts 200] [-workers 4] [-reuse]
//	arena -model trained.bin [-game gomoku:9] [-games 10] [-playouts 100]
//	arena -ckpt checkpoints [-game gomoku:9] [-games 10] [-playouts 100]
//
// -game takes any registry spec (tictactoe, connect4, gomoku:9, othello,
// hex:11, ...); the round robin defaults to connect4 and the -model/-ckpt
// gates to gomoku:9.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/parmcts/parmcts/internal/arena"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/stats"
	"github.com/parmcts/parmcts/internal/tree"
)

func main() {
	var (
		gameSpec  = games.Flag(flag.CommandLine, "", " (default connect4; gomoku:9 for -model/-ckpt)")
		nGames    = flag.Int("games", 10, "games per pairing")
		playouts  = mcts.PlayoutsFlag(flag.CommandLine, 200, "")
		workers   = flag.Int("workers", 4, "workers for the parallel schemes")
		reuse     = mcts.ReuseFlag(flag.CommandLine, false, ": engines keep the played subtree warm across moves")
		transpose = tree.TransposeFlag(flag.CommandLine, "off", "")
		model     = flag.String("model", "", "gate this saved model against a fresh network")
		ckpt      = flag.String("ckpt", "", "gate the latest checkpoint in this store against the previous version")
	)
	flag.Parse()

	if *model != "" {
		gateModel(*model, games.ResolveFlag("arena", *gameSpec, "gomoku:9"), *nGames, *playouts)
		return
	}
	if *ckpt != "" {
		gateCheckpoints(*ckpt, games.ResolveFlag("arena", *gameSpec, "gomoku:9"), *nGames, *playouts)
		return
	}
	g := games.ResolveFlag("arena", *gameSpec, "connect4")

	cfg := mcts.DefaultConfig()
	cfg.Playouts = *playouts
	cfg.ReuseTree = *reuse
	// Each entrant gets its own private table (TransposeSize, not a shared
	// TransposeTable): the round robin compares schemes, so no engine should
	// be served evaluations discovered by an opponent.
	cfg.TransposeSize = tree.ResolveTransposeFlag("arena", *transpose)
	eval := &evaluate.Random{}
	pool := evaluate.NewPool(eval, *workers)
	defer pool.Close()
	pool2 := evaluate.NewPool(eval, *workers)
	defer pool2.Close()

	entrants := []arena.Entrant{
		{Name: "serial", Engine: mcts.NewSerial(cfg, eval)},
		{Name: "shared", Engine: mcts.NewShared(cfg, *workers, eval)},
		{Name: "local", Engine: mcts.NewLocal(cfg, pool, *workers)},
		{Name: "root-par", Engine: mcts.NewRootParallel(cfg, *workers, eval)},
		{Name: "leaf-par", Engine: mcts.NewLeafParallel(cfg, *workers, pool2)},
	}
	results := arena.RoundRobin(g, entrants, arena.MatchConfig{
		Games:       *nGames,
		Temperature: 0.3,
		TempMoves:   4,
		Seed:        7,
	})
	tb := stats.NewTable(fmt.Sprintf("Round robin on %s (%d games/pair, %d playouts/move)",
		g.Name(), *nGames, *playouts),
		"A", "B", "A wins", "B wins", "draws", "A score", "A elo")
	for _, r := range results {
		tb.AddRow(r.A, r.B, r.Result.WinsA, r.Result.WinsB, r.Result.Draws,
			fmt.Sprintf("%.3f", r.Result.Score()),
			fmt.Sprintf("%+.0f", r.Result.EloDiff(1000)))
	}
	fmt.Print(tb.String())
	fmt.Println("\nparity across schemes is the expected outcome (Section 5.5);")
	fmt.Println("leaf-parallel may lag: its K-fold evaluations are redundant with a deterministic evaluator")
}

// gateCheckpoints replays the most recent promotion recorded in a
// checkpoint store: latest version vs its predecessor at equal budgets.
func gateCheckpoints(dir string, g game.Game, nGames, playouts int) {
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arena:", err)
		os.Exit(1)
	}
	versions, err := store.Versions()
	if err != nil {
		fmt.Fprintln(os.Stderr, "arena:", err)
		os.Exit(1)
	}
	if len(versions) < 2 {
		fmt.Fprintf(os.Stderr, "arena: store %s has %d committed versions; need at least 2 to gate\n", dir, len(versions))
		os.Exit(1)
	}
	curV, prevV := versions[len(versions)-1], versions[len(versions)-2]
	current, cm, err := store.LoadVersion(curV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arena:", err)
		os.Exit(1)
	}
	previous, _, err := store.LoadVersion(prevV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arena:", err)
		os.Exit(1)
	}
	if err := checkpoint.CheckGame(current, cm.Game, g); err != nil {
		fmt.Fprintf(os.Stderr, "arena: checkpoint store %s: %v (pass -game)\n", dir, err)
		os.Exit(1)
	}
	cfg := arena.DefaultGateConfig()
	cfg.Games = nGames
	cfg.Playouts = playouts
	promote, res := arena.GateCandidate(g, current, previous, cfg)
	fmt.Printf("v%d vs v%d (trained to step %d): %s\n", curV, prevV, cm.Step, res)
	if promote {
		fmt.Printf("verdict: v%d still clears the %.2f gate against v%d\n", curV, cfg.WinThreshold, prevV)
	} else {
		fmt.Printf("verdict: v%d does NOT clear the %.2f gate against v%d on this re-match\n", curV, cfg.WinThreshold, prevV)
	}
}

func gateModel(path string, g game.Game, nGames, playouts int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arena:", err)
		os.Exit(1)
	}
	defer f.Close()
	candidate, err := nn.Load(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arena:", err)
		os.Exit(1)
	}
	if err := checkpoint.CheckGame(candidate, "", g); err != nil {
		fmt.Fprintf(os.Stderr, "arena: model %s: %v (pass -game)\n", path, err)
		os.Exit(1)
	}
	fresh := nn.MustNew(candidate.Cfg, rng.New(99))
	cfg := arena.DefaultGateConfig()
	cfg.Games = nGames
	cfg.Playouts = playouts
	promote, res := arena.GateCandidate(g, candidate, fresh, cfg)
	fmt.Printf("candidate vs fresh network: %s\n", res)
	if promote {
		fmt.Println("verdict: candidate clears the promotion gate")
	} else {
		fmt.Println("verdict: candidate does NOT clear the promotion gate")
	}
}
