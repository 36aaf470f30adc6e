// Package train implements the outer DNN-MCTS training pipeline of
// Algorithm 1: iterated data collection through self-play episodes driven
// by a (parallel) search engine, followed by SGD updates on the collected
// (state, visit-distribution, outcome) triples, with the loss of Equation 2
// tracked over wall-clock time (the metric of Figure 7) and the
// samples-per-second throughput of Figure 6.
package train

import (
	"math"
	"sync"
	"time"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// Augmenter expands a training sample into equivalent variants (board
// symmetries). A nil Augmenter means no augmentation.
type Augmenter interface {
	Augment(s nn.Sample) []nn.Sample
}

// GomokuAugmenter applies the 8 dihedral symmetries of the square board to
// both the input planes and the policy target.
type GomokuAugmenter struct {
	Size   int // board edge
	Planes int // encoding planes
}

// AugmenterFor returns the symmetry augmenter appropriate for g, or nil
// when the game has none wired up. Only Gomoku gets the 8-fold dihedral
// expansion: its policy is a pure cell grid. Othello's action space carries
// a pass index outside the grid and Hex's rhombus admits only a 180°
// symmetry, so both train unaugmented rather than with a silently wrong
// policy permutation.
func AugmenterFor(g game.Game) Augmenter {
	if gg, ok := g.(*gomoku.Game); ok {
		c, _, _ := gg.EncodedShape()
		return GomokuAugmenter{Size: gg.Size, Planes: c}
	}
	return nil
}

// Augment implements Augmenter.
func (a GomokuAugmenter) Augment(s nn.Sample) []nn.Sample {
	out := make([]nn.Sample, 0, gomoku.NumSymmetries)
	for sym := 0; sym < gomoku.NumSymmetries; sym++ {
		if sym == 0 {
			out = append(out, s)
			continue
		}
		input := make([]float32, len(s.Input))
		policy := make([]float32, len(s.Policy))
		gomoku.ApplySymmetryPlanes(input, s.Input, sym, a.Planes, a.Size)
		gomoku.ApplySymmetryPolicy(policy, s.Policy, sym, a.Size)
		out = append(out, nn.Sample{Input: input, Policy: policy, Value: s.Value})
	}
	return out
}

// Replay is a bounded FIFO sample store ("dataset" of Algorithm 1) with
// uniform random mini-batch sampling. It is safe for concurrent use: the
// continuous training Loop samples mini-batches on the SGD goroutine while
// the self-play generator ingests finished games.
type Replay struct {
	mu   sync.Mutex
	buf  []nn.Sample
	next int
}

// NewReplay creates a replay buffer holding up to capacity samples.
func NewReplay(capacity int) *Replay {
	if capacity < 1 {
		panic("train: replay capacity must be >= 1")
	}
	return &Replay{buf: make([]nn.Sample, 0, capacity)}
}

// Add appends a sample, evicting the oldest when full.
func (r *Replay) Add(s nn.Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
		return
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % cap(r.buf)
}

// Ingest adds one game's samples, each expanded by aug (nil = as is). It is
// the one way episode data enters the dataset — live games at a round's ingest
// barrier, a learner's accepted worker episodes, games restored from a durable
// store — so restored data is augmented exactly like live data.
func (r *Replay) Ingest(samples []nn.Sample, aug Augmenter) {
	for _, s := range samples {
		if aug == nil {
			r.Add(s)
			continue
		}
		for _, v := range aug.Augment(s) {
			r.Add(v)
		}
	}
}

// Len returns the number of stored samples.
func (r *Replay) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Cap returns the buffer capacity.
func (r *Replay) Cap() int { return cap(r.buf) }

// Sample draws a mini-batch of up to n samples. Contract: when the buffer
// holds more than n samples, the batch is n draws uniform WITH replacement
// (standard for AlphaZero-style training; mini-batches may overlap). When
// n is at least the current fill, the batch is the distinct fill — every
// stored sample exactly once, in random order — never padded by repeating
// entries: an undersized warmup buffer must not silently weight early
// games multiple times within one SGD step. Callers see the true batch
// size in len(result). The returned slice holds copies of the sample
// headers, so a concurrent Add that overwrites a ring slot cannot mutate a
// drawn mini-batch.
func (r *Replay) Sample(rnd *rng.Rand, n int) []nn.Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 || n <= 0 {
		return nil
	}
	if n >= len(r.buf) {
		out := make([]nn.Sample, len(r.buf))
		copy(out, r.buf)
		rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	out := make([]nn.Sample, n)
	for i := range out {
		out[i] = r.buf[rnd.Intn(len(r.buf))]
	}
	return out
}

// SampleAction draws an action from a visit distribution with the given
// temperature: 1 reproduces the distribution (early-game exploration),
// values near 0 sharpen towards argmax (competitive play). A temperature
// of exactly 0 is a deterministic argmax.
//
// A distribution with no positive mass returns -1 instead of defaulting to
// action 0: in placement games action 0 happens to be legal from the empty
// board, but in scenarios like Othello cell 0 is illegal almost everywhere,
// so silently returning it turned a degenerate search result (e.g. a full
// arena rejecting the root expansion) into an illegal-move panic two layers
// away. Callers fall back to an explicit legal move.
func SampleAction(rnd *rng.Rand, dist []float32, temperature float64) int {
	if temperature <= 0 {
		best, bestV := -1, float32(0)
		for a, p := range dist {
			if p > bestV {
				best, bestV = a, p
			}
		}
		return best
	}
	// Exponentiate visit shares by 1/T and sample.
	weights := make([]float64, len(dist))
	var sum float64
	for a, p := range dist {
		if p <= 0 {
			continue
		}
		w := math.Pow(float64(p), 1/temperature)
		weights[a] = w
		sum += w
	}
	if sum <= 0 {
		return SampleAction(rnd, dist, 0)
	}
	x := rnd.Float64() * sum
	for a, w := range weights {
		x -= w
		if x <= 0 && w > 0 {
			return a
		}
	}
	return SampleAction(rnd, dist, 0)
}

// SampleActionOrLegal is SampleAction with the degenerate case resolved:
// when the distribution has no positive mass (SampleAction returns -1), it
// falls back to a uniformly random legal move of st instead of letting the
// caller assume action 0 exists — which only placement games guarantee.
// Every driver that feeds a sampled action into State.Play should use this
// form.
func SampleActionOrLegal(rnd *rng.Rand, dist []float32, temperature float64, st game.State) int {
	if a := SampleAction(rnd, dist, temperature); a >= 0 {
		return a
	}
	legal := st.LegalMoves(nil)
	return legal[rnd.Intn(len(legal))]
}

// EpisodeOptions configures one self-play episode.
type EpisodeOptions struct {
	// TempMoves is the number of opening moves sampled at temperature 1;
	// later moves are argmax.
	TempMoves int
	// Rand drives move sampling.
	Rand *rng.Rand
}

// EpisodeResult is the data one self-play game produced.
type EpisodeResult struct {
	// Samples holds one (s_t, pi_t, r) triple per move, outcomes filled in
	// from the final result (Algorithm 1 line 12). Unaugmented.
	Samples []nn.Sample
	// Moves is the episode length.
	Moves int
	// Winner is the game result.
	Winner game.Player
	// SearchTime is the total tree-based search time.
	SearchTime time.Duration
	// Search aggregates the per-move engine stats over the whole episode
	// (mcts.Stats.Add), so concurrent-game drivers can merge episodes
	// without hand-summing fields.
	Search mcts.Stats
}

// SelfPlayEpisode plays one complete game with the engine choosing both
// sides' moves (lines 3-12 of Algorithm 1). After every move the engine is
// advanced past the played action, so an engine configured with
// mcts.Config.ReuseTree continues each search from the played child's warm
// subtree; at the episode boundary the session is discarded so the next
// episode (typically a new game on a reused engine) starts cold.
func SelfPlayEpisode(g game.Game, engine mcts.Engine, opts EpisodeOptions) EpisodeResult {
	if opts.Rand == nil {
		opts.Rand = rng.New(0)
	}
	maxMoves := g.MaxGameLength() // truncates pathological games
	st := g.NewInitial()
	c, h, w := g.EncodedShape()
	inputLen := c * h * w

	var res EpisodeResult
	var movers []game.Player
	dist := make([]float32, g.NumActions())
	for !st.Terminal() && res.Moves < maxMoves {
		t0 := time.Now()
		res.Search.Add(engine.Search(st, dist))
		res.SearchTime += time.Since(t0)

		input := make([]float32, inputLen)
		st.Encode(input)
		policy := make([]float32, len(dist))
		copy(policy, dist)
		res.Samples = append(res.Samples, nn.Sample{Input: input, Policy: policy})
		movers = append(movers, st.ToMove())

		temp := 0.0
		if res.Moves < opts.TempMoves {
			temp = 1.0
		}
		action := SampleActionOrLegal(opts.Rand, dist, temp, st)
		st.Play(action)
		res.Moves++
		if !st.Terminal() && res.Moves < maxMoves {
			// Self-play drives both sides with one engine, so a single
			// Advance per move keeps the tree rooted at the next search
			// position.
			engine.Advance(action)
		}
	}
	engine.Advance(mcts.DiscardTree)
	res.Winner = st.Winner()
	for i := range res.Samples {
		res.Samples[i].Value = game.Outcome(res.Winner, movers[i])
	}
	return res
}
