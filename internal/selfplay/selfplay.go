// Package selfplay runs G self-play games concurrently against one shared
// inference service, and Algorithm 1's synchronous loop (Trainer) over them; a
// single engine is a fleet of one. Each game owns its own search engine
// (typically an mcts.Local master holding a private tree), but all engines
// submit node evaluations to the same evaluate.Server, so the device sees
// one aggregated batch stream instead of G under-filled ones (the regime
// Algorithm 4 of the paper exists to avoid). Finished games feed a shared
// replay buffer, which the round-based Trainer then consumes for SGD
// updates exactly as Algorithm 1 prescribes.
//
// Engines configured with mcts.Config.ReuseTree run as persistent search
// sessions: every game advances its engine past each played move (see
// train.SelfPlayEpisode), so each search continues from the played child's
// warm subtree and the fleet's aggregate evaluation demand per move drops
// by the recorded reuse fraction (Round.Search.ReuseFraction) — demand
// relief that multiplies directly into the shared service's throughput.
package selfplay

import (
	"sync"
	"time"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/train"
)

// Config tunes the concurrent driver. Every game of a round starts and ends
// inside PlayRound, so a caller that changes the network between PlayRound
// calls (dist.Worker swaps its server's backend there) never has a game
// evaluated by two networks.
type Config struct {
	// TempMoves is the exploration temperature horizon per game.
	TempMoves int
	// Seed drives per-game move sampling (split per game per round).
	Seed uint64
	// OnEpisode, when non-nil, receives every finished episode at the
	// round's ingest barrier — on the driver goroutine, in tenant order, so
	// the delivery sequence is deterministic for a fixed seed. This is the
	// streaming hook: a dist.Worker encodes each episode for its learner
	// here.
	OnEpisode func(tenant int, ep *train.EpisodeResult)
}

// Round reports one batch of G concurrent games.
type Round struct {
	// Episodes holds each game's result, indexed by tenant.
	Episodes []train.EpisodeResult
	// Search aggregates every game's per-move engine stats (Stats.Add);
	// Duration therein is summed engine time and exceeds wall-clock when
	// games overlap — the wall-clock of the round is Elapsed. With warm
	// trees, Search.ReuseFraction reports the share of the round's playout
	// target served from retained subtrees instead of fresh evaluations.
	Search mcts.Stats
	// Moves and Samples count across all games (Samples pre-augmentation).
	Moves   int
	Samples int
	// Elapsed is the wall-clock time of the concurrent round.
	Elapsed time.Duration
}

// Driver plays G games concurrently, one goroutine per game, all sharing a
// replay buffer (and, through their engines, typically one inference
// service). Engines must be distinct — each owns its own tree — and are
// mapped one-to-one onto games.
type Driver struct {
	g       game.Game
	engines []mcts.Engine
	cfg     Config
	r       *rng.Rand
	replay  *train.Replay
	augment train.Augmenter
}

// NewDriver creates a concurrent driver over the given engines (one per
// game). replay receives every finished game's (augmented) samples at the
// round barrier, in game order, so the insertion sequence — and therefore SGD
// batch composition — is a pure function of the seed, not of goroutine
// scheduling. augment may be nil. replay may be nil for a streaming-only
// fleet — a distributed worker that ships every episode to a remote learner
// through Config.OnEpisode and trains nothing locally — in which case
// nothing is ingested and Replay returns nil.
func NewDriver(g game.Game, engines []mcts.Engine, replay *train.Replay, augment train.Augmenter, cfg Config) *Driver {
	if len(engines) < 1 {
		panic("selfplay: driver needs at least one engine")
	}
	if replay == nil && cfg.OnEpisode == nil {
		panic("selfplay: driver needs a replay buffer or an OnEpisode sink")
	}
	return &Driver{
		g:       g,
		engines: engines,
		cfg:     cfg,
		r:       rng.New(cfg.Seed),
		replay:  replay,
		augment: augment,
	}
}

// Games returns G, the number of concurrent games per round.
func (d *Driver) Games() int { return len(d.engines) }

// Replay returns the shared replay buffer (nil for a streaming-only
// driver). Safe to use between rounds.
func (d *Driver) Replay() *train.Replay { return d.replay }

// PlayRound plays one round of G concurrent games and returns the merged
// results. Per-game RNGs are split on the caller's goroutine before the
// fan-out, so rounds are reproducible for a fixed seed and G.
func (d *Driver) PlayRound() Round {
	g := len(d.engines)
	rands := make([]*rng.Rand, g)
	for i := range rands {
		rands[i] = d.r.Split()
	}
	episodes := make([]train.EpisodeResult, g)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			episodes[i] = train.SelfPlayEpisode(d.g, d.engines[i], train.EpisodeOptions{
				TempMoves: d.cfg.TempMoves,
				Rand:      rands[i],
			})
		}(i)
	}
	wg.Wait()
	// Ingest at the barrier in game order: games race in wall-clock but the
	// replay sequence stays deterministic for a fixed seed.
	for i := 0; i < g; i++ {
		if d.cfg.OnEpisode != nil {
			d.cfg.OnEpisode(i, &episodes[i])
		}
		if d.replay != nil {
			d.replay.Ingest(episodes[i].Samples, d.augment)
		}
	}

	round := Round{Episodes: episodes, Elapsed: time.Since(start)}
	for i := range episodes {
		round.Search.Add(episodes[i].Search)
		round.Moves += episodes[i].Moves
		round.Samples += len(episodes[i].Samples)
	}
	return round
}

// TrainerConfig configures the round-based training loop.
type TrainerConfig struct {
	// Rounds is the number of concurrent-game rounds (each round plays G
	// games, so Rounds*G episodes total).
	Rounds int
	// SGDIterations is the number of mini-batch updates per round.
	SGDIterations int
	// BatchSize is the SGD mini-batch size.
	BatchSize int
	// LR, Momentum, WeightDecay are the optimizer hyper-parameters.
	LR, Momentum, WeightDecay float64
	// Seed drives mini-batch draws.
	Seed uint64
}

// RoundStats reports one round of the training loop.
type RoundStats struct {
	Round   int
	Games   int
	Moves   int
	Samples int
	// Loss is the Equation 2 decomposition of the round's last update.
	Loss nn.BatchResult
	// Search is the aggregated engine stats of the round's games.
	Search mcts.Stats
	// SearchTime is the round's wall-clock self-play time (concurrent);
	// TrainTime is the SGD stage; Elapsed is since training started.
	SearchTime time.Duration
	TrainTime  time.Duration
	Elapsed    time.Duration
}

// Throughput returns processed samples per second, the Figure 6 metric
// evaluated on the concurrent pipeline: samples / (search + train) wall
// time. Concurrency raises it by shrinking the search term, not the count.
func (s RoundStats) Throughput() float64 {
	denom := (s.SearchTime + s.TrainTime).Seconds()
	if denom <= 0 {
		return 0
	}
	return float64(s.Samples) / denom
}

// Trainer alternates concurrent self-play rounds with SGD updates — the
// Algorithm 1 outer loop with line 3's episode replaced by a G-wide round.
type Trainer struct {
	d   *Driver
	net *nn.Network
	opt *nn.SGD
	cfg TrainerConfig
	r   *rng.Rand
}

// NewTrainer assembles the round-based pipeline around an existing driver.
func NewTrainer(d *Driver, net *nn.Network, cfg TrainerConfig) *Trainer {
	if cfg.Rounds < 1 {
		panic("selfplay: Rounds must be >= 1")
	}
	if d.Replay() == nil {
		panic("selfplay: a Trainer needs a driver with a replay buffer")
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 32
	}
	if cfg.SGDIterations < 1 {
		cfg.SGDIterations = 1
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.01
	}
	return &Trainer{
		d:   d,
		net: net,
		opt: nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay),
		cfg: cfg,
		r:   rng.New(cfg.Seed),
	}
}

// Net returns the network being trained.
func (t *Trainer) Net() *nn.Network { return t.net }

// Run executes the configured number of rounds, invoking onRound (if
// non-nil) after each one, and returns the per-round statistics.
func (t *Trainer) Run(onRound func(RoundStats)) []RoundStats {
	all := make([]RoundStats, 0, t.cfg.Rounds)
	start := time.Now()
	for round := 0; round < t.cfg.Rounds; round++ {
		res := t.d.PlayRound()

		t0 := time.Now()
		var last nn.BatchResult
		for it := 0; it < t.cfg.SGDIterations; it++ {
			batch := t.d.Replay().Sample(t.r, t.cfg.BatchSize)
			last = nn.TrainBatch(t.net, t.opt, batch, 0)
		}
		trainTime := time.Since(t0)

		stats := RoundStats{
			Round:      round,
			Games:      t.d.Games(),
			Moves:      res.Moves,
			Samples:    res.Samples,
			Loss:       last,
			Search:     res.Search,
			SearchTime: res.Elapsed,
			TrainTime:  trainTime,
			Elapsed:    time.Since(start),
		}
		all = append(all, stats)
		if onRound != nil {
			onRound(stats)
		}
	}
	return all
}
