package train

import (
	"time"

	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// GenRound summarises one round of self-play generation (G concurrent
// games ingested into the shared replay buffer).
type GenRound struct {
	Games, Moves, Samples int
	Search                mcts.Stats
	Elapsed               time.Duration
}

// Generator produces self-play data: one call delivers a round of games whose
// samples land in the replay buffer the Loop trains from. dist.Learner is the
// production implementation: it assembles rounds from the episodes its
// workers stream, so generation keeps running across a model promotion.
type Generator interface {
	Generate() GenRound
}

// GateResult is the evidence a promotion gate produced.
type GateResult struct {
	// Promote reports whether the candidate cleared the win-rate gate.
	Promote bool
	// Score is the candidate's match score in [0, 1] (wins + half-draws).
	Score                                      float64
	Games, WinsCandidate, WinsIncumbent, Draws int
	Elapsed                                    time.Duration
}

// Gate decides promotion: it plays candidate (to serve as candidateVersion)
// against the incumbent (serving as incumbentVersion) and reports whether
// the candidate is strong enough to replace it.
type Gate interface {
	Gate(candidate *nn.Network, candidateVersion int64, incumbent *nn.Network, incumbentVersion int64) GateResult
}

// Promotion records one accepted gate.
type Promotion struct {
	// Version is the promoted model version.
	Version int64
	// Round is the generation round after which the gate ran.
	Round int
	// Step is the cumulative SGD update count at promotion time.
	Step int64
	// Samples is the cumulative generated sample count at promotion time.
	Samples int
	// Gate is the match evidence.
	Gate GateResult
}

// Promoter applies an accepted promotion to the serving side: persist the
// snapshot (checkpoint store) and hand the new version to the inference
// service, which swaps it in where no game is in flight.
type Promoter interface {
	// Promote makes candidate the serving model under p.Version. An error
	// aborts the promotion: the Loop keeps the old incumbent.
	Promote(candidate *nn.Network, p Promotion) error
}

// LoopConfig tunes the continuous training loop.
type LoopConfig struct {
	// Rounds is the number of generation rounds to consume.
	Rounds int
	// GateEvery runs the promotion gate after every K trained rounds
	// (0 = never gate; the loop degenerates to generate+SGD).
	GateEvery int
	// SGDIterations is the number of mini-batch updates per round.
	SGDIterations int
	// BatchSize is the SGD mini-batch size.
	BatchSize int
	// LR, Momentum, WeightDecay are the optimizer hyper-parameters.
	LR, Momentum, WeightDecay float64
	// MinSamples delays SGD (and therefore gating) until the replay buffer
	// has at least this many samples (0 = train from the first round).
	MinSamples int
	// StartVersion is the incumbent's model version at loop start (0 = 1).
	// Promoted candidates get consecutive versions above it.
	StartVersion int64
	// Seed drives mini-batch draws.
	Seed uint64
	// Stop, when non-nil, ends the loop early: once it is closed no further
	// generation rounds are requested, and Run returns after consuming the
	// rounds already in flight. The distributed learner closes it on
	// shutdown so a SIGTERM drains the loop instead of abandoning it
	// mid-gate. A Generator whose Generate can block indefinitely (e.g. a
	// remote ingest barrier) should watch the same channel and return.
	Stop <-chan struct{}
}

// LoopRoundStats reports one consumed generation round.
type LoopRoundStats struct {
	Round   int
	Games   int
	Moves   int
	Samples int
	// Version is the incumbent version serving the fleet AFTER this round's
	// gate (if any) resolved.
	Version int64
	// Step is the cumulative SGD update count.
	Step int64
	// Trained reports whether SGD ran this round (false during replay
	// warmup, see LoopConfig.MinSamples).
	Trained bool
	// Loss is the Equation 2 decomposition of the round's last update.
	Loss nn.BatchResult
	// Gate is the gate evidence when one ran this round (nil otherwise).
	Gate *GateResult
	// PromoteErr reports a promotion that was accepted by the gate but
	// failed to apply (checkpoint write error); the incumbent was kept.
	PromoteErr error
	// Search aggregates the round's engine stats.
	Search mcts.Stats
	// GenTime is the round's generation wall-clock (overlapped with the
	// previous round's SGD); TrainTime is this round's SGD stage; Elapsed
	// is since the loop started.
	GenTime   time.Duration
	TrainTime time.Duration
	Elapsed   time.Duration
}

// LoopReport summarises a finished Run.
type LoopReport struct {
	Rounds     int
	Steps      int64
	Samples    int
	Promotions []Promotion
	// FinalVersion is the incumbent version when the loop ended.
	FinalVersion int64
	Elapsed      time.Duration
}

// Loop is the outer ring of the self-play system: it overlaps self-play
// generation with SGD on the replay buffer and, every GateEvery rounds,
// plays a freshly cloned candidate against the incumbent through the
// promotion gate, swapping the serving model only when the candidate clears
// the win-rate threshold.
//
// Concurrency contract: the Generator runs on its own goroutine, one round
// ahead of the SGD consumer (a one-round channel buffer), so generation for
// round r+1 overlaps SGD on round r's data. The generator's engines must
// evaluate a FROZEN parameter snapshot (the incumbent behind the inference
// service), never the live training network this loop mutates; the replay
// buffer is internally synchronised. Gates and promotions run on the
// consumer goroutine while generation continues; the fleet takes a promoted
// model at its next round barrier.
type Loop struct {
	gen       Generator
	gate      Gate
	promoter  Promoter
	net       *nn.Network // live training parameters (SGD mutates)
	incumbent *nn.Network // frozen serving snapshot (gate opponent)
	replay    *Replay
	opt       *nn.SGD
	cfg       LoopConfig
	r         *rng.Rand

	version int64
	// candidateSeq is the last version number handed to a gate candidate.
	// Every gate attempt consumes a FRESH version — a rejected candidate's
	// number is never reused, so nothing cached, registered, or logged
	// under it can ever be confused with a later candidate's artifacts.
	candidateSeq int64
	step         int64
	samples      int
	promotions   []Promotion
}

// NewLoop assembles the continuous pipeline. incumbent is the frozen clone
// currently serving the generator's inference service (version
// cfg.StartVersion); net is the live training parameter set. gate and
// promoter may be nil only when cfg.GateEvery is 0.
func NewLoop(net, incumbent *nn.Network, replay *Replay, gen Generator, gate Gate, promoter Promoter, cfg LoopConfig) *Loop {
	if net == nil || incumbent == nil {
		panic("train: loop needs both a training and an incumbent network")
	}
	if net == incumbent {
		panic("train: incumbent must be a frozen clone, not the training network")
	}
	if replay == nil || gen == nil {
		panic("train: loop needs a replay buffer and a generator")
	}
	if cfg.Rounds < 1 {
		panic("train: Rounds must be >= 1")
	}
	if cfg.GateEvery > 0 && (gate == nil || promoter == nil) {
		panic("train: gating requires a Gate and a Promoter")
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
	if cfg.StartVersion < 1 {
		cfg.StartVersion = 1
	}
	return &Loop{
		gen:          gen,
		gate:         gate,
		promoter:     promoter,
		net:          net,
		incumbent:    incumbent,
		replay:       replay,
		opt:          nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay),
		cfg:          cfg,
		r:            rng.New(cfg.Seed),
		version:      cfg.StartVersion,
		candidateSeq: cfg.StartVersion,
	}
}

// Run drives the loop to completion, invoking onRound (if non-nil) after
// each consumed round.
func (l *Loop) Run(onRound func(LoopRoundStats)) LoopReport {
	type timedRound struct {
		gr      GenRound
		elapsed time.Duration
	}
	rounds := make(chan timedRound, 1) // one round of read-ahead: gen overlaps SGD
	go func() {
		defer close(rounds)
		for i := 0; i < l.cfg.Rounds; i++ {
			if l.cfg.Stop != nil {
				select {
				case <-l.cfg.Stop:
					return
				default:
				}
			}
			t0 := time.Now()
			gr := l.gen.Generate()
			if l.cfg.Stop != nil {
				// A stopped generator may have returned an empty partial
				// round; don't feed it to SGD/gating after shutdown began.
				select {
				case <-l.cfg.Stop:
					return
				default:
				}
			}
			rounds <- timedRound{gr: gr, elapsed: time.Since(t0)}
		}
	}()

	start := time.Now()
	var trainedRounds int
	round := 0
	for tr := range rounds {
		gr := tr.gr
		l.samples += gr.Samples

		t0 := time.Now()
		var last nn.BatchResult
		trained := false
		if l.replay.Len() >= l.cfg.MinSamples && l.replay.Len() > 0 {
			for it := 0; it < l.cfg.SGDIterations; it++ {
				batch := l.replay.Sample(l.r, l.cfg.BatchSize)
				last = nn.TrainBatch(l.net, l.opt, batch, 0)
				l.step++
			}
			trained = true
			trainedRounds++
		}
		trainTime := time.Since(t0)

		stats := LoopRoundStats{
			Round:   round,
			Games:   gr.Games,
			Moves:   gr.Moves,
			Samples: gr.Samples,
			Step:    l.step,
			Trained: trained,
			Loss:    last,
			Search:  gr.Search,
			GenTime: tr.elapsed,
		}

		if l.cfg.GateEvery > 0 && trained && trainedRounds%l.cfg.GateEvery == 0 {
			candidate := l.net.Clone()
			l.candidateSeq++
			cv := l.candidateSeq
			res := l.gate.Gate(candidate, cv, l.incumbent, l.version)
			stats.Gate = &res
			if res.Promote {
				p := Promotion{Version: cv, Round: round, Step: l.step, Samples: l.samples, Gate: res}
				if err := l.promoter.Promote(candidate, p); err != nil {
					stats.PromoteErr = err
				} else {
					l.incumbent = candidate
					l.version = cv
					l.promotions = append(l.promotions, p)
				}
			}
		}

		stats.Version = l.version
		stats.TrainTime = trainTime
		stats.Elapsed = time.Since(start)
		if onRound != nil {
			onRound(stats)
		}
		round++
	}

	return LoopReport{
		Rounds:       round,
		Steps:        l.step,
		Samples:      l.samples,
		Promotions:   l.promotions,
		FinalVersion: l.version,
		Elapsed:      time.Since(start),
	}
}
