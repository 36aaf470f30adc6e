// Command train runs the continuous training service on any registered
// scenario (-game gomoku:9, othello, hex:7, ...): G concurrent self-play
// games generate through one shared inference service
// while SGD updates a live parameter set, and every -gate-every rounds a
// candidate snapshot must beat the serving incumbent in an arena match
// (played through the same service, both versions live at once) before it
// is promoted — checkpointed to disk, hot-swapped behind the server with no
// drain, and version-scoped cache invalidation retiring the old model.
//
// If the checkpoint directory already holds committed versions, training
// resumes from the latest one and version numbering continues.
//
// With -replay-dir set, every finished self-play game is also committed to
// a durable trajectory store (internal/trajstore): append-only checksummed
// segment files with atomic commits, so a killed run resumes with BOTH its
// model (checkpoints) and its data (the newest stored games are re-ingested
// into the replay ring at startup). A replay-store write error never stops
// training: the store degrades to read-only and the run continues on the
// in-memory ring alone.
//
// Usage:
//
//	train [-game gomoku:9] [-games 8] [-workers 4] [-playouts 100] [-rounds 12]
//	      [-gate-every 2] [-gate-games 12] [-win-rate 0.55]
//	      [-ckpt checkpoints] [-replay-dir traj] [-replay-retain 100000]
//	      [-reuse] [-transpose on:65536] [-full-net] [-seed 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/parmcts/parmcts/internal/adaptive"
	"github.com/parmcts/parmcts/internal/arena"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/selfplay"
	"github.com/parmcts/parmcts/internal/tensor"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/trajstore"
	"github.com/parmcts/parmcts/internal/tree"
)

// servicePromoter applies accepted promotions to the serving stack:
// checkpoint first (durability), then the drain-free hot swap to the version
// the gate left registered.
type servicePromoter struct {
	store *checkpoint.Store
	srv   *evaluate.Server
	game  string
	// baseStep/baseRounds/baseSamples carry the resumed checkpoint's
	// cumulative counters: the Loop counts per-run, the manifest records
	// training-history totals.
	baseStep    int64
	baseRounds  int
	baseSamples int
}

func (p *servicePromoter) Promote(candidate *nn.Network, pr train.Promotion) error {
	_, err := p.store.Save(candidate, checkpoint.Manifest{
		Version:   pr.Version,
		Step:      p.baseStep + pr.Step,
		Rounds:    p.baseRounds + pr.Round + 1,
		Samples:   p.baseSamples + pr.Samples,
		GateScore: pr.Gate.Score,
		Game:      p.game,
		Note:      "promoted by arena gate",
	})
	if err != nil {
		p.srv.Release(pr.Version)
		return err
	}
	p.srv.Promote(pr.Version)
	return nil
}

func main() {
	var (
		gameSpec     = flag.String("game", "gomoku:9", games.FlagHelp())
		nGames       = flag.Int("games", 8, "concurrent self-play games (tenants of the shared service)")
		workers      = flag.Int("workers", 4, "inference threads of the shared service; also each game's in-flight bound")
		playouts     = flag.Int("playouts", 100, "per-move playout budget of the self-play engines")
		rounds       = flag.Int("rounds", 12, "generation rounds (each plays -games games concurrently)")
		gateEvery    = flag.Int("gate-every", 2, "run the promotion gate every K trained rounds (0 = never)")
		gateGames    = flag.Int("gate-games", 12, "games per gate match")
		gatePlayouts = flag.Int("gate-playouts", 60, "playouts per move in gate matches")
		winRate      = flag.Float64("win-rate", 0.55, "score the candidate must reach to be promoted")
		sgdIters     = flag.Int("sgd", 8, "SGD mini-batch updates per round")
		minSamples   = flag.Int("min-samples", 256, "replay samples required before SGD and gating start")
		cacheSize    = flag.Int("cache", 1<<16, "shared transposition cache capacity (positions, all versions)")
		ckptDir      = flag.String("ckpt", "checkpoints", "checkpoint store directory")
		replayDir    = flag.String("replay-dir", "", "durable trajectory store directory (empty = in-memory replay only)")
		replaySeg    = flag.Int("replay-segment", 64, "games per trajectory-store segment before an atomic seal")
		replayRetain = flag.Int("replay-retain", 100000, "games kept in the trajectory store (0 = unbounded)")
		reuse        = flag.Bool("reuse", false, "persistent search sessions across moves")
		transpose    = flag.String("transpose", "off", tree.TransposeFlagHelp())
		fullNet      = flag.Bool("full-net", false, "use the full 5-conv+3-FC network")
		seed         = flag.Uint64("seed", 1, "run seed")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()
	if *nGames < 1 || *workers < 1 || *rounds < 1 {
		fmt.Fprintln(os.Stderr, "train: -games, -workers and -rounds must be >= 1")
		os.Exit(2)
	}

	g := games.ResolveFlag("train", *gameSpec, "gomoku:9")
	c, h, w := g.EncodedShape()
	gameName := *gameSpec

	store, err := checkpoint.NewStore(*ckptDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}

	// Fresh start or resume: the incumbent is always a frozen clone of the
	// training parameters, serving behind the inference service.
	var net *nn.Network
	startVersion := int64(1)
	var baseStep int64
	var baseRounds, baseSamples int
	switch loaded, m, lerr := store.LoadLatest(); {
	case lerr == nil:
		if m.Game != "" && games.SpecName(m.Game) != games.SpecName(gameName) {
			// Shape equality is not identity: hex:9 and gomoku:9 share the
			// 4x9x9/81 network shape, so the manifest's game name is the
			// authoritative resume guard.
			fmt.Fprintf(os.Stderr, "train: checkpoint store %s was trained on %q, not -game %s; use a fresh -ckpt directory\n",
				store.Dir(), m.Game, gameName)
			os.Exit(1)
		}
		if loaded.Cfg.InC != c || loaded.Cfg.H != h || loaded.Cfg.W != w || loaded.Cfg.NumActions != g.NumActions() {
			fmt.Fprintf(os.Stderr, "train: checkpoint store %s holds a %q network (%dx%dx%d/%d actions) that does not match -game %s; use a fresh -ckpt directory\n",
				store.Dir(), m.Game, loaded.Cfg.InC, loaded.Cfg.H, loaded.Cfg.W, loaded.Cfg.NumActions, gameName)
			os.Exit(1)
		}
		net = loaded
		startVersion = m.Version
		baseStep, baseRounds, baseSamples = m.Step, m.Rounds, m.Samples
		fmt.Printf("resuming from checkpoint version %d (step %d, %s)\n", m.Version, m.Step, store.Dir())
	case errors.Is(lerr, checkpoint.ErrEmpty):
		net = nn.MustNew(nn.ConfigFor(*fullNet, c, h, w, g.NumActions()), rng.New(*seed))
		if _, err := store.Save(net, checkpoint.Manifest{Version: 1, Game: gameName, Note: "seed network"}); err != nil {
			fmt.Fprintln(os.Stderr, "train:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "train:", lerr)
		os.Exit(1)
	}
	incumbent := net.Clone()

	// Shared service: one lock-striped transposition cache shared by all
	// live versions through version-scoped views, one EvaluatorBackend per
	// version.
	cache := evaluate.NewCached(evaluate.NewNN(incumbent), *cacheSize)
	mkBackend := func(n *nn.Network, v int64) evaluate.Backend {
		return &evaluate.EvaluatorBackend{Eval: cache.View(v, evaluate.NewNN(n)), Workers: *workers}
	}

	// With -transpose, all G tenants share one lock-striped table: the
	// fleet's searches converge on shared statistics for transposed
	// positions, and later games are served openings discovered by earlier
	// ones.
	var transTable *tree.TransTable
	if n := tree.ResolveTransposeFlag("train", *transpose); n > 0 {
		transTable = tree.NewTransTable(n)
	}

	cfgs := make([]mcts.Config, *nGames)
	for i := range cfgs {
		cfg := mcts.DefaultConfig()
		cfg.Playouts = *playouts
		cfg.DirichletAlpha = 0.3
		cfg.NoiseFrac = 0.25
		cfg.Seed = *seed + uint64(i)*7919
		cfg.ReuseTree = *reuse
		cfg.TransposeTable = transTable
		cfgs[i] = cfg
	}
	// What dies with a model version (evaluate.Server, "Model-version
	// lifecycle"): its entries in the shared cache and, if it ever served the
	// fleet (a rejected candidate's number is above the current one), the
	// transposition table, which is keyed by position only and now holds
	// evaluations and statistics of stale weights.
	var srv *evaluate.Server
	onRetire := func(version int64) {
		cache.ResetVersion(version)
		if transTable != nil && version < srv.Version() {
			transTable.Reset()
		}
	}
	fleet := adaptive.NewLocalFleet(mkBackend(incumbent, startVersion), startVersion, onRetire, *workers, cfgs)
	defer fleet.Close()
	srv = fleet.Server
	clients := fleet.Clients

	// Durable replay: every finished game is committed to the trajectory
	// store before its samples enter the in-memory ring, and a restarted
	// run re-ingests the newest stored games below. Graceful degradation:
	// the first storage error flips the store read-only, gets logged once,
	// and training continues on the ring alone.
	var tstore *trajstore.Store
	if *replayDir != "" {
		tstore, err = trajstore.Open(*replayDir, trajstore.Config{
			SegmentGames: *replaySeg,
			Retain:       trajstore.Retention{MaxGames: *replayRetain},
			Game:         games.SpecName(gameName),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "train:", err)
			os.Exit(1)
		}
		defer tstore.Close()
		if rec := tstore.Recovery(); rec.TornBytes > 0 || rec.AdoptedSegments > 0 || rec.DroppedSegments > 0 || rec.ManifestRebuilt {
			fmt.Printf("replay store recovery: %d torn bytes truncated, %d segments adopted, %d dropped, manifest rebuilt=%v\n",
				rec.TornBytes, rec.AdoptedSegments, rec.DroppedSegments, rec.ManifestRebuilt)
		}
		fmt.Printf("replay store: %d games (%d samples) in %s\n", tstore.Games(), tstore.Samples(), *replayDir)
	}

	const replayCap = 50000
	replay := train.NewReplay(replayCap)
	driver := selfplay.NewDriver(g, fleet.Engines, replay, train.AugmenterFor(g), selfplay.Config{
		TempMoves: 6,
		Seed:      *seed,
		// Pin each tenant to the serving version at game start: a game's
		// evaluations never mix models across a mid-round promotion.
		OnGameStart: func(tenant int) { clients[tenant].PinCurrent() },
		OnGameEnd:   func(tenant int) { clients[tenant].Unpin() },
		// Commit each finished game durably at the round's ingest barrier.
		OnEpisode: func(tenant int, ep *train.EpisodeResult) {
			if tstore == nil || tstore.ReadOnly() {
				return
			}
			if aerr := tstore.Append(trajstore.Episode{Moves: ep.Moves, Winner: ep.Winner, Samples: ep.Samples}); aerr != nil {
				fmt.Fprintf(os.Stderr, "train: replay store degraded to read-only, continuing on the in-memory ring: %v\n", aerr)
			}
		},
	})

	// Resume the DATA half: re-ingest the newest stored games (enough raw
	// samples to cover the ring) through the driver's augmentation path,
	// oldest first so ring eviction keeps the most recent.
	if tstore != nil && tstore.Games() > 0 {
		startEp := tstore.Games()
		restoredRaw := 0
		for startEp > 0 && restoredRaw < replayCap {
			ep, gerr := tstore.Get(startEp - 1)
			if gerr != nil {
				fmt.Fprintln(os.Stderr, "train: replay restore:", gerr)
				break
			}
			restoredRaw += len(ep.Samples)
			startEp--
		}
		restoredGames := 0
		for i := startEp; i < tstore.Games(); i++ {
			ep, gerr := tstore.Get(i)
			if gerr != nil {
				fmt.Fprintln(os.Stderr, "train: replay restore:", gerr)
				break
			}
			driver.Ingest(ep.Samples)
			restoredGames++
		}
		fmt.Printf("replay restored: %d games, %d samples into the ring (fill %d)\n",
			restoredGames, restoredRaw, replay.Len())
	}

	gate := &arena.ServerGate{
		Game:      g,
		Srv:       srv,
		MkBackend: mkBackend,
		Cfg: arena.GateConfig{
			Games:        *gateGames,
			WinThreshold: *winRate,
			Playouts:     *gatePlayouts,
			Temperature:  0.2,
			TempMoves:    6,
			Seed:         *seed + 1_000_003,
		},
	}
	promoter := &servicePromoter{
		store: store, srv: srv, game: gameName,
		baseStep: baseStep, baseRounds: baseRounds, baseSamples: baseSamples,
	}

	loop := train.NewLoop(net, incumbent, replay, driver, gate, promoter, train.LoopConfig{
		Rounds:        *rounds,
		GateEvery:     *gateEvery,
		SGDIterations: *sgdIters,
		BatchSize:     64,
		LR:            0.01,
		Momentum:      0.9,
		WeightDecay:   1e-4,
		MinSamples:    *minSamples,
		StartVersion:  startVersion,
		Seed:          *seed,
	})

	fmt.Printf("training service: %s, %d games x %d playouts, gate every %d rounds (%d games, win-rate >= %.2f), checkpoints in %s\n",
		gameName, *nGames, *playouts, *gateEvery, *gateGames, *winRate, store.Dir())
	report := loop.Run(func(s train.LoopRoundStats) {
		line := fmt.Sprintf("round %2d: v%d moves=%4d samples=%4d", s.Round, s.Version, s.Moves, s.Samples)
		if s.Trained {
			line += fmt.Sprintf(" loss=%.4f (v=%.4f p=%.4f)", s.Loss.TotalLoss(), s.Loss.ValueLoss, s.Loss.PolicyLoss)
		} else {
			line += " warmup"
		}
		line += fmt.Sprintf(" gen=%v sgd=%v fill=%.1f", s.GenTime.Round(1e6), s.TrainTime.Round(1e6), srv.Stats().AvgFill())
		if s.Gate != nil {
			verdict := "rejected"
			if s.Gate.Promote {
				verdict = fmt.Sprintf("PROMOTED -> v%d", s.Version)
			}
			line += fmt.Sprintf(" | gate %d:%d+%d score=%.2f %s",
				s.Gate.WinsCandidate, s.Gate.WinsIncumbent, s.Gate.Draws, s.Gate.Score, verdict)
		}
		if s.PromoteErr != nil {
			line += fmt.Sprintf(" | PROMOTION FAILED: %v", s.PromoteErr)
		}
		fmt.Println(line)
	})

	if tstore != nil {
		if tstore.ReadOnly() {
			fmt.Printf("replay store: DEGRADED read-only (%v); run continued on the in-memory ring\n", tstore.Err())
		} else {
			fmt.Printf("replay store: %d games (%d samples) committed in %s\n", tstore.Games(), tstore.Samples(), *replayDir)
		}
	}
	hits, misses := cache.Stats()
	fmt.Printf("done: %d rounds, %d SGD steps, %d samples, %d promotions, final version v%d, elapsed %v\n",
		report.Rounds, report.Steps, report.Samples, len(report.Promotions), report.FinalVersion, report.Elapsed.Round(1e6))
	fmt.Printf("service: avg batch fill %.2f over %d launches; cache %d/%d hit\n",
		srv.Stats().AvgFill(), srv.Stats().Batches, hits, hits+misses)
	if transTable != nil {
		ts := transTable.Stats()
		fmt.Printf("transposition table: %d entries, hit rate %.2f (%d hits, %d collisions, %d evictions since last reset)\n",
			ts.Entries, ts.HitRate(), ts.Hits, ts.Collisions, ts.Evictions)
	}
	for _, p := range report.Promotions {
		fmt.Printf("  v%d at round %d (step %d): score %.2f over %d games\n",
			p.Version, p.Round, p.Step, p.Gate.Score, p.Gate.Games)
	}
}
