package dist

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/parmcts/parmcts/internal/arena"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/trajstore"
	"github.com/parmcts/parmcts/internal/tree"
)

// The one flag set of cmd/train's roles (-listen: the learner on a TCP
// listener; -learner: a worker on a TCP dialer; default: both InProcess),
// declared here once, and each line a role prints, formatted here once.

// Flags registers every role's options on fs and returns the two functions
// that, once fs is parsed, fill each half's config from them. learner opens
// the checkpoint and replay stores (cfg.Traj, nil without -replay-dir, is the
// caller's to Close); worker opens nothing. Logf, and a worker's Dial,
// NewEvaluator and its ID when -id is unset, are the caller's to set.
func Flags(fs *flag.FlagSet) (learner func() (LearnerConfig, error), worker func() (WorkerConfig, error)) {
	var (
		spec = games.Flag(fs, "gomoku:9", "")
		seed = rng.SeedFlag(fs, "")
		// The learner's.
		roundGames   = fs.Int("round-games", 8, "worker episodes per generation round (in-process: -games)")
		roundTimeout = fs.Duration("round-timeout", 10*time.Second, "max wait to fill a round after its first episode (bounds the cost of a dead worker)")
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
		// The worker's.
		nGames    = fs.Int("games", 8, "concurrent self-play games (tenants of the local shared service)")
		playouts  = mcts.PlayoutsFlag(fs, 100, " of the self-play engines")
		workers   = fs.Int("workers", 4, "inference threads of the local service; also each game's in-flight bound")
		id        = fs.String("id", "", "worker name in learner logs, mixed into -seed so workers given one seed play different games (default worker-<pid>; in-process: local)")
		buffer    = fs.Int("buffer", 256, "episodes buffered while disconnected (with no room for another round, the worker waits for its learner)")
		reuse     = mcts.ReuseFlag(fs, false, " across moves")
		transpose = tree.TransposeFlag(fs, "off", "")
	)
	learner = func() (LearnerConfig, error) {
		if *rounds < 1 || *roundGames < 1 {
			return LearnerConfig{}, errors.New("-rounds and -round-games must be >= 1")
		}
		g, err := game.NewFromSpec(*spec)
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
				Game:         games.SpecName(*spec),
			})
			if err != nil {
				return LearnerConfig{}, err
			}
		}
		return LearnerConfig{
			Game:     g,
			GameSpec: *spec,
			Store:    store,
			NewNet: func() *nn.Network {
				c, h, w := g.EncodedShape()
				return nn.MustNew(nn.ConfigFor(*fullNet, c, h, w, g.NumActions()), rng.New(*seed))
			},
			Replay:       train.NewReplay(50000),
			Traj:         traj,
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
		}, nil
	}
	worker = func() (WorkerConfig, error) {
		if *nGames < 1 || *workers < 1 {
			return WorkerConfig{}, errors.New("-games and -workers must be >= 1")
		}
		g, err := game.NewFromSpec(*spec)
		if err != nil {
			return WorkerConfig{}, err
		}
		transSize, err := tree.ParseTransposeSpec(*transpose)
		if err != nil {
			return WorkerConfig{}, err
		}
		return WorkerConfig{
			ID:             *id,
			Game:           g,
			GameSpec:       *spec,
			Games:          *nGames,
			Playouts:       *playouts,
			Workers:        *workers,
			ReuseTree:      *reuse,
			TransposeSize:  transSize,
			TempMoves:      6,
			Seed:           *seed,
			BufferEpisodes: *buffer,
		}, nil
	}
	return learner, worker
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
