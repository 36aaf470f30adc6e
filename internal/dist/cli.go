package dist

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"github.com/parmcts/parmcts/internal/arena"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/trajstore"
)

// What the three training binaries share: cmd/learner is LearnerFlags on a
// TCP listener, cmd/worker is WorkerFlags on a TCP dialer, cmd/train is both
// on one in-memory Network. Each option is declared here once, and each line
// the binaries print about a run is formatted here once.

// RunFlags are the two options both halves of the pipeline take.
type RunFlags struct {
	GameSpec *string
	Seed     *uint64
}

// RegisterRunFlags registers -game and -seed on fs.
func RegisterRunFlags(fs *flag.FlagSet) RunFlags {
	return RunFlags{
		GameSpec: games.Flag(fs, "gomoku:9", ""),
		Seed:     rng.SeedFlag(fs, ""),
	}
}

// LearnerFlags registers the learner's options on fs and returns the function
// that, once fs is parsed, opens the checkpoint and replay stores and fills a
// LearnerConfig from them. RoundGames, RoundTimeout and Logf are the
// caller's to set, and cfg.Traj (nil without -replay-dir) the caller's to
// Close.
func LearnerFlags(fs *flag.FlagSet, run RunFlags) func() (LearnerConfig, error) {
	var (
		rounds       = fs.Int("rounds", 12, "generation rounds to consume")
		gateEvery    = fs.Int("gate-every", 2, "run the promotion gate every K trained rounds (0 = never)")
		gateGames    = fs.Int("gate-games", 12, "games per gate match")
		gatePlayouts = fs.Int("gate-playouts", 60, "playouts per move in gate matches")
		winRate      = fs.Float64("win-rate", 0.55, "score the candidate must reach to be promoted")
		sgdIters     = fs.Int("sgd", 8, "SGD mini-batch updates per round")
		minSamples   = fs.Int("min-samples", 256, "replay samples required before SGD and gating start")
		ckptDir      = fs.String("ckpt", "checkpoints", "checkpoint store directory")
		replayDir    = fs.String("replay-dir", "", "durable trajectory store directory (empty = in-memory replay only)")
		replaySeg    = fs.Int("replay-segment", 64, "games per trajectory-store segment before an atomic seal")
		replayRetain = fs.Int("replay-retain", 100000, "games kept in the trajectory store (0 = unbounded)")
		fullNet      = nn.FullNetFlag(fs, " when seeding")
	)
	return func() (LearnerConfig, error) {
		if *rounds < 1 {
			return LearnerConfig{}, errors.New("-rounds must be >= 1")
		}
		g, err := game.NewFromSpec(*run.GameSpec)
		if err != nil {
			return LearnerConfig{}, err
		}
		store, err := checkpoint.NewStore(*ckptDir)
		if err != nil {
			return LearnerConfig{}, err
		}
		var traj *trajstore.Store
		if *replayDir != "" {
			traj, err = trajstore.Open(*replayDir, trajstore.Config{
				SegmentGames: *replaySeg,
				Retain:       trajstore.Retention{MaxGames: *replayRetain},
				Game:         games.SpecName(*run.GameSpec),
			})
			if err != nil {
				return LearnerConfig{}, err
			}
		}
		seed := *run.Seed
		return LearnerConfig{
			Game:     g,
			GameSpec: *run.GameSpec,
			Store:    store,
			NewNet: func() *nn.Network {
				c, h, w := g.EncodedShape()
				return nn.MustNew(nn.ConfigFor(*fullNet, c, h, w, g.NumActions()), rng.New(seed))
			},
			Replay:  train.NewReplay(50000),
			Traj:    traj,
			Augment: train.AugmenterFor(g),
			Loop: train.LoopConfig{
				Rounds:        *rounds,
				GateEvery:     *gateEvery,
				SGDIterations: *sgdIters,
				BatchSize:     64,
				LR:            0.01,
				Momentum:      0.9,
				WeightDecay:   1e-4,
				MinSamples:    *minSamples,
				Seed:          seed,
			},
			Gate: arena.GateConfig{
				Games:        *gateGames,
				WinThreshold: *winRate,
				Playouts:     *gatePlayouts,
				Temperature:  0.2,
				TempMoves:    6,
				Seed:         seed + 1_000_003,
			},
		}, nil
	}
}

// WorkerFlags registers the self-play fleet's options on fs and returns the
// function that, once fs is parsed, fills a WorkerConfig from them. ID, Dial,
// Rounds, BufferEpisodes and Logf are the caller's to set.
func WorkerFlags(fs *flag.FlagSet, run RunFlags) func() (WorkerConfig, error) {
	var (
		nGames   = fs.Int("games", 8, "concurrent self-play games (tenants of the local shared service)")
		playouts = mcts.PlayoutsFlag(fs, 100, " of the self-play engines")
		workers  = fs.Int("workers", 4, "inference threads of the local service; also each game's in-flight bound")
	)
	return func() (WorkerConfig, error) {
		if *nGames < 1 || *workers < 1 {
			return WorkerConfig{}, errors.New("-games and -workers must be >= 1")
		}
		g, err := game.NewFromSpec(*run.GameSpec)
		if err != nil {
			return WorkerConfig{}, err
		}
		return WorkerConfig{
			Game:      g,
			GameSpec:  *run.GameSpec,
			Games:     *nGames,
			Playouts:  *playouts,
			Workers:   *workers,
			TempMoves: 6,
			Seed:      *run.Seed,
		}, nil
	}
}

// RoundLine formats one consumed round.
func RoundLine(s train.LoopRoundStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "round %2d: v%d games=%2d moves=%4d samples=%4d", s.Round, s.Version, s.Games, s.Moves, s.Samples)
	if s.Trained {
		fmt.Fprintf(&b, " loss=%.4f (v=%.4f p=%.4f)", s.Loss.TotalLoss(), s.Loss.ValueLoss, s.Loss.PolicyLoss)
	} else {
		b.WriteString(" warmup")
	}
	fmt.Fprintf(&b, " gen=%v sgd=%v", s.GenTime.Round(1e6), s.TrainTime.Round(1e6))
	if s.Gate != nil {
		verdict := "rejected"
		if s.Gate.Promote {
			verdict = fmt.Sprintf("PROMOTED -> v%d", s.Version)
		}
		fmt.Fprintf(&b, " | gate %d:%d+%d score=%.2f %s",
			s.Gate.WinsCandidate, s.Gate.WinsIncumbent, s.Gate.Draws, s.Gate.Score, verdict)
	}
	if s.PromoteErr != nil {
		fmt.Fprintf(&b, " | PROMOTION FAILED: %v", s.PromoteErr)
	}
	return b.String()
}

// Summary formats a finished run: the loop's totals, the wire counters, the
// state of the durable replay store and each promotion's evidence.
func (l *Learner) Summary(report train.LoopReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "done: %d rounds, %d SGD steps, %d samples, %d promotions, final version v%d, elapsed %v\n",
		report.Rounds, report.Steps, report.Samples, len(report.Promotions), report.FinalVersion, report.Elapsed.Round(1e6))
	st := l.Stats()
	fmt.Fprintf(&b, "wire: %d workers seen, %d episodes accepted, %d frames rejected, %d checkpoint broadcasts\n",
		st.WorkersSeen, st.Episodes, st.Rejected, st.Broadcasts)
	if ts := l.cfg.Traj; ts != nil && ts.ReadOnly() {
		fmt.Fprintf(&b, "replay store: DEGRADED read-only (%v); run continued on the in-memory ring\n", ts.Err())
	} else if ts != nil {
		fmt.Fprintf(&b, "replay store: %d games (%d samples) committed\n", ts.Games(), ts.Samples())
	}
	for _, p := range report.Promotions {
		fmt.Fprintf(&b, "  v%d at round %d (step %d): score %.2f over %d games\n",
			p.Version, p.Round, p.Step, p.Gate.Score, p.Gate.Games)
	}
	return b.String()
}

// String formats a finished worker run.
func (s WorkerStats) String() string {
	return fmt.Sprintf("%d rounds, %d episodes (%d playouts), %d sent, %d dropped, %d reconnects, %d swaps, final v%d",
		s.Rounds, s.Episodes, s.Playouts, s.Sent, s.Dropped, s.Reconnects, s.Swaps, s.Version)
}
