// Command learner runs the training half of the distributed self-play
// split: it listens for worker connections, assembles their streamed
// episodes into generation rounds, owns SGD and the replay ring, gates
// candidate snapshots in local arena matches, and on every promotion
// commits a checkpoint and fans it out to all connected workers.
//
// The learner is restart-safe: killed and restarted with the same -ckpt
// and -replay-dir, it resumes from the latest committed checkpoint and
// re-ingests the newest stored games; workers redial with backoff and
// receive the current model in the hello exchange, so a learner restart
// costs the fleet only the reconnect window.
//
// Usage:
//
//	learner [-listen :9876] [-game gomoku:9] [-round-games 8]
//	        [-round-timeout 10s] [-rounds 12] [-gate-every 2]
//	        [-gate-games 12] [-gate-playouts 60] [-win-rate 0.55]
//	        [-sgd 8] [-min-samples 256] [-ckpt checkpoints]
//	        [-replay-dir traj] [-full-net] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/parmcts/parmcts/internal/arena"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/dist"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/trajstore"
)

func main() {
	var (
		listen       = flag.String("listen", ":9876", "TCP address workers connect to")
		gameSpec     = flag.String("game", "gomoku:9", games.FlagHelp())
		roundGames   = flag.Int("round-games", 8, "worker episodes per generation round")
		roundTimeout = flag.Duration("round-timeout", 10*time.Second, "max wait to fill a round after its first episode (bounds the cost of a dead worker)")
		rounds       = flag.Int("rounds", 12, "generation rounds to consume")
		gateEvery    = flag.Int("gate-every", 2, "run the promotion gate every K trained rounds (0 = never)")
		gateGames    = flag.Int("gate-games", 12, "games per gate match")
		gatePlayouts = flag.Int("gate-playouts", 60, "playouts per move in gate matches")
		winRate      = flag.Float64("win-rate", 0.55, "score the candidate must reach to be promoted")
		sgdIters     = flag.Int("sgd", 8, "SGD mini-batch updates per round")
		minSamples   = flag.Int("min-samples", 256, "replay samples required before SGD and gating start")
		ckptDir      = flag.String("ckpt", "checkpoints", "checkpoint store directory")
		replayDir    = flag.String("replay-dir", "", "durable trajectory store directory (empty = in-memory replay only)")
		replaySeg    = flag.Int("replay-segment", 64, "games per trajectory-store segment before an atomic seal")
		replayRetain = flag.Int("replay-retain", 100000, "games kept in the trajectory store (0 = unbounded)")
		fullNet      = flag.Bool("full-net", false, "use the full 5-conv+3-FC network when seeding")
		seed         = flag.Uint64("seed", 1, "run seed")
	)
	flag.Parse()
	if *roundGames < 1 || *rounds < 1 {
		fmt.Fprintln(os.Stderr, "learner: -round-games and -rounds must be >= 1")
		os.Exit(2)
	}

	g := games.ResolveFlag("learner", *gameSpec, "gomoku:9")
	c, h, w := g.EncodedShape()

	store, err := checkpoint.NewStore(*ckptDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "learner:", err)
		os.Exit(1)
	}

	var tstore *trajstore.Store
	if *replayDir != "" {
		tstore, err = trajstore.Open(*replayDir, trajstore.Config{
			SegmentGames: *replaySeg,
			Retain:       trajstore.Retention{MaxGames: *replayRetain},
			Game:         games.SpecName(*gameSpec),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "learner:", err)
			os.Exit(1)
		}
		defer tstore.Close()
	}

	lis, err := dist.ListenTCP(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "learner:", err)
		os.Exit(1)
	}

	learner, err := dist.NewLearner(lis, dist.LearnerConfig{
		Game:     g,
		GameSpec: *gameSpec,
		Store:    store,
		NewNet: func() *nn.Network {
			return nn.MustNew(nn.ConfigFor(*fullNet, c, h, w, g.NumActions()), rng.New(*seed))
		},
		Replay:       train.NewReplay(50000),
		Traj:         tstore,
		Augment:      train.AugmenterFor(g),
		RoundGames:   *roundGames,
		RoundTimeout: *roundTimeout,
		Loop: train.LoopConfig{
			Rounds:        *rounds,
			GateEvery:     *gateEvery,
			SGDIterations: *sgdIters,
			BatchSize:     64,
			LR:            0.01,
			Momentum:      0.9,
			WeightDecay:   1e-4,
			MinSamples:    *minSamples,
			Seed:          *seed,
		},
		Gate: arena.GateConfig{
			Games:        *gateGames,
			WinThreshold: *winRate,
			Playouts:     *gatePlayouts,
			Temperature:  0.2,
			TempMoves:    6,
			Seed:         *seed + 1_000_003,
		},
		Logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "learner:", err)
		os.Exit(1)
	}

	// SIGTERM/SIGINT drain the loop: no new rounds are requested, in-flight
	// state is consumed, checkpoints and the replay store stay committed.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Printf("learner: %v, draining\n", s)
		learner.Stop()
	}()

	fmt.Printf("learner: %s on %s, %d episodes/round, gate every %d rounds (%d games, win-rate >= %.2f), checkpoints in %s\n",
		*gameSpec, lis.Addr(), *roundGames, *gateEvery, *gateGames, *winRate, store.Dir())
	report := learner.Run(func(s train.LoopRoundStats) {
		line := fmt.Sprintf("round %2d: v%d games=%2d moves=%4d samples=%4d", s.Round, s.Version, s.Games, s.Moves, s.Samples)
		if s.Trained {
			line += fmt.Sprintf(" loss=%.4f", s.Loss.TotalLoss())
		} else {
			line += " warmup"
		}
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

	st := learner.Stats()
	fmt.Printf("done: %d rounds, %d SGD steps, %d samples, %d promotions, final version v%d, elapsed %v\n",
		report.Rounds, report.Steps, report.Samples, len(report.Promotions), report.FinalVersion, report.Elapsed.Round(1e6))
	fmt.Printf("wire: %d workers seen, %d episodes accepted, %d frames rejected, %d checkpoint broadcasts\n",
		st.WorkersSeen, st.Episodes, st.Rejected, st.Broadcasts)
	if tstore != nil && tstore.ReadOnly() {
		fmt.Printf("replay store: DEGRADED read-only (%v); run continued on the in-memory ring\n", tstore.Err())
	}
}
