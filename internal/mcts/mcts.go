// Package mcts implements the tree-based search engines of the paper as one
// rollout step and four schedulers over it.
//
// The step (core.go) is the paper's rollout: descend from the root by PUCT,
// resolve the leaf without the network when it is a terminal node, a
// terminal state or a transposition-table hit, otherwise evaluate it, expand
// it with the masked priors, and back the value up. It has two parameters —
// how the descent marks its path in flight (virtual loss off, applied by the
// tree's single owner without locks, or applied under the per-node locks) and
// whether the evaluation runs inline or is submitted and waited for — and
// Algorithms 2 and 3 differ in nothing else. An engine is that step plus a
// scheduler deciding which thread runs it when:
//
//   - Serial: the calling thread, one rollout after another, no virtual
//     loss — the reference used for profiling and as the algorithmic
//     baseline of Section 5.5.
//   - Shared: Algorithm 2 — N threads draw playout tickets and run complete
//     rollouts, each evaluating its own leaf, against one locked tree.
//   - Local: Algorithm 3 — a master thread owns the tree without locks,
//     submits each leaf to an asynchronous evaluator (inference thread pool
//     or batched accelerator) and finishes the rollouts in submission order.
//   - LeafParallel: the related-work baseline of Section 2.2 — serial, with
//     each leaf's evaluation fanned out K-fold.
//
// RootParallel, the other Section 2.2 baseline, composes W serial
// sub-searches instead. Every engine shares one Search skeleton (session
// lock, warm-tree preparation, scheduler, accounting) and one
// persistent session (session.go), so the probe order, the noise draws and
// the phase accounting are the same by construction, not by convention. The
// skeleton also tells a batching evaluator who is searching (SlotRegistrar):
// each rollout context is a slot in the evaluator's quorum from the start of
// the scheduler's run until it can no longer submit, so a shared
// evaluate.Server launches a partial batch the moment every open search has
// a request in it instead of waiting out its flush deadline. All
// engines consume the same game.State/evaluate interfaces, forming the
// "single program template" the paper compiles its adaptive choice into.
//
// The schedule is fixed: for a given Config (seed included), position and
// evaluator, Serial, Shared(1), Local at any MaxInFlight and LeafParallel
// run the same rollouts in the same order on every run, however the
// evaluator's goroutines interleave. Out of scope by design: Shared with
// N > 1, whose threads race for tickets and locks, and a transposition table
// shared by concurrent searches (a fleet's Config.TransposeTable, or
// RootParallel's sub-searches), where whichever search first evaluates a
// position publishes it for all.
package mcts

import (
	"flag"
	"time"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tree"
)

// Config holds the search hyper-parameters shared by every engine.
type Config struct {
	// Playouts is the per-move iteration budget (1600 in the paper).
	Playouts int
	// Tree holds the PUCT/virtual-loss parameters of Equation 1.
	Tree tree.Config
	// DirichletAlpha, when positive, mixes Dir(alpha) noise into the root
	// priors (self-play exploration). NoiseFrac is the mixing weight.
	DirichletAlpha float64
	NoiseFrac      float64
	// Seed makes root noise deterministic.
	Seed uint64
	// Profile enables per-phase latency accounting: one clock read per
	// phase boundary of every rollout, so Select+Eval+Expand+Backup time
	// covers the whole of each rollout (leave off in throughput runs).
	Profile bool
	// ReuseTree retains the played child's subtree across moves: after a
	// driver calls Engine.Advance for each move, the next Search continues
	// from the warm tree and only spends the playout budget the retained
	// visits do not already cover — cutting DNN evaluations per move.
	// When false (the default, and the paper's rebuild-every-move
	// workload), Advance invalidates the tree and every Search starts
	// cold.
	ReuseTree bool
	// TransposeSize, when positive, gives the session a private
	// transposition table with that many entries: transposed positions
	// share one DNN evaluation and one pool of visit statistics (the tree
	// becomes a DAG, see internal/tree/transpose.go). The table persists
	// across moves and games of the session and is only dropped with it,
	// so a private table is valid only while the weights are frozen (arena,
	// serve, bench); a training loop owns its table through TransposeTable
	// and resets it at every weight update.
	TransposeSize int
	// TransposeTable, when non-nil, overrides TransposeSize with an
	// externally owned (typically fleet-shared) table: G concurrent games
	// converge on shared statistics and evaluations. The owner must Reset
	// it whenever the model weights change.
	TransposeTable *tree.TransTable
}

// DefaultConfig returns the paper's search configuration.
func DefaultConfig() Config {
	return Config{
		Playouts: 1600,
		Tree:     tree.DefaultConfig(),
	}
}

// PlayoutsFlag registers the -playouts flag (Config.Playouts): def is the
// binary's default budget, and note, if any, is appended to the usage string.
func PlayoutsFlag(fs *flag.FlagSet, def int, note string) *int {
	return fs.Int("playouts", def, "per-move playout budget"+note)
}

// ReuseFlag registers the -reuse flag (Config.ReuseTree) the same way.
func ReuseFlag(fs *flag.FlagSet, def bool, note string) *bool {
	return fs.Bool("reuse", def, "persistent search sessions"+note)
}

// Stats reports one Search invocation. Playouts counts the rollouts the
// search actually ran: on a warm tree (Config.ReuseTree + Advance) the
// retained visits are credited against the budget, so Playouts plus
// ReusedVisits equals the configured target.
type Stats struct {
	Playouts int
	Duration time.Duration
	// Expansions counts nodes expanded; TerminalHits counts rollouts that
	// ended on an already-terminal node (no DNN evaluation needed).
	Expansions   int
	TerminalHits int
	// SumDepth accumulates leaf depths (AvgDepth = SumDepth/Playouts).
	SumDepth int
	// Evaluations counts DNN evaluation requests issued — the currency the
	// paper's performance models price. Subtree reuse lowers it at equal
	// playout targets; that drop is the point of persistent sessions.
	Evaluations int
	// WastedEvals counts duplicate expansions during this search:
	// evaluations bought for a leaf another rollout had already expanded.
	// The underlying tree counter survives rebases, so rollouts in flight
	// across a move boundary are attributed, not dropped.
	WastedEvals int
	// ReusedNodes/ReusedVisits report what Advance retained into this
	// search's warm tree (zero on cold searches).
	ReusedNodes  int
	ReusedVisits int
	// TransHits counts leaf evaluations served from the transposition
	// table instead of the network — each one is a forward pass the search
	// did not buy. Evaluations + TransHits is the eval demand the search
	// would have had with the table off (modulo changed exploration).
	TransHits int
	// Phase breakdown, populated when Config.Profile is set. The phases
	// partition each rollout's time on its own thread: Select is the root
	// copy and the descent; Expand is everything between reaching the leaf
	// and backing up that is not evaluation — the table probe, a table-hit
	// expansion, legal moves, masking, the expansion proper; Eval is the
	// inline evaluation, or for awaited evaluations the encode and submit
	// (plus, in LeafParallel, the wait for the K results). Summed over the
	// workers, so with N threads the total may exceed Duration.
	SelectTime time.Duration
	ExpandTime time.Duration
	BackupTime time.Duration
	EvalTime   time.Duration
}

// Add accumulates o into s, field by field — including the phase timings,
// which per-worker and per-game merges used to hand-sum and silently drop
// when a field was missed. Concurrent-game drivers aggregate per-move stats
// with it; note that Duration then accumulates engine time, which exceeds
// wall-clock when searches overlap.
func (s *Stats) Add(o Stats) {
	s.Playouts += o.Playouts
	s.Duration += o.Duration
	s.Expansions += o.Expansions
	s.TerminalHits += o.TerminalHits
	s.SumDepth += o.SumDepth
	s.Evaluations += o.Evaluations
	s.WastedEvals += o.WastedEvals
	s.ReusedNodes += o.ReusedNodes
	s.ReusedVisits += o.ReusedVisits
	s.TransHits += o.TransHits
	s.SelectTime += o.SelectTime
	s.ExpandTime += o.ExpandTime
	s.BackupTime += o.BackupTime
	s.EvalTime += o.EvalTime
}

// ReuseFraction returns the share of the playout target covered by
// retained visits instead of fresh rollouts: ReusedVisits over
// (ReusedVisits + Playouts). Zero on cold searches.
func (s Stats) ReuseFraction() float64 {
	total := s.ReusedVisits + s.Playouts
	if total == 0 {
		return 0
	}
	return float64(s.ReusedVisits) / float64(total)
}

// TransposeFraction returns the share of leaf evaluations served from the
// transposition table: TransHits over (TransHits + Evaluations). Zero when
// the table is off or nothing hit.
func (s Stats) TransposeFraction() float64 {
	total := s.TransHits + s.Evaluations
	if total == 0 {
		return 0
	}
	return float64(s.TransHits) / float64(total)
}

// AvgDepth returns the mean leaf depth of the search.
func (s Stats) AvgDepth() float64 {
	if s.Playouts == 0 {
		return 0
	}
	return float64(s.SumDepth) / float64(s.Playouts)
}

// PerIteration returns the amortized per-worker-iteration latency, the
// paper's primary speed metric (Section 5.3): total move time divided by
// the playout budget.
func (s Stats) PerIteration() time.Duration {
	if s.Playouts == 0 {
		return 0
	}
	return s.Duration / time.Duration(s.Playouts)
}

// Engine is one parallel search implementation.
type Engine interface {
	// Name identifies the scheme ("serial", "shared", "local", ...).
	Name() string
	// Search runs the configured playout budget from st and writes the
	// normalised root visit distribution into dist (length NumActions).
	// On a warm tree (see Advance) the budget is reduced by the retained
	// root visits, so the total backing the distribution still matches the
	// configured target.
	Search(st game.State, dist []float32) Stats
	// Advance tells the engine the game advanced by action. Drivers call
	// it once per move — for the engine's own move and for the opponent's
	// reply — so the tree can follow the game. With Config.ReuseTree set,
	// the played child's subtree is promoted to the root (statistics
	// intact) and the next Search continues from it; otherwise, or when
	// action is negative (DiscardTree, for game boundaries), the session
	// goes cold and the next Search rebuilds from scratch. Advance waits
	// for any in-flight rollouts to drain before rebasing.
	Advance(action int)
	// Close releases engine-owned goroutines.
	Close()
}

// maskedPriors extracts the priors of the legal actions from a full policy
// vector and renormalises them. If the network assigns (numerically) zero
// mass to all legal moves, the priors fall back to uniform.
func maskedPriors(policy []float32, actions []int, out []float32) {
	var sum float32
	for i, a := range actions {
		p := policy[a]
		if p < 0 {
			p = 0
		}
		out[i] = p
		sum += p
	}
	if sum <= 1e-12 {
		u := 1 / float32(len(actions))
		for i := range actions {
			out[i] = u
		}
		return
	}
	inv := 1 / sum
	for i := range actions {
		out[i] *= inv
	}
}

// rootNoiseRemix returns the warm-root prior remix callback for
// session.prepare, or nil when root noise is disabled.
func rootNoiseRemix(cfg Config, r *rng.Rand) func(priors []float32) {
	if cfg.DirichletAlpha <= 0 || cfg.NoiseFrac <= 0 {
		return nil
	}
	return func(priors []float32) { applyRootNoise(cfg, r, priors) }
}

// applyRootNoise mixes Dirichlet noise into freshly computed root priors.
func applyRootNoise(cfg Config, r *rng.Rand, priors []float32) {
	if cfg.DirichletAlpha <= 0 || cfg.NoiseFrac <= 0 {
		return
	}
	noise := make([]float64, len(priors))
	r.Dirichlet(cfg.DirichletAlpha, noise)
	frac := float32(cfg.NoiseFrac)
	for i := range priors {
		priors[i] = (1-frac)*priors[i] + frac*float32(noise[i])
	}
}

// terminalValue returns the game outcome from the perspective of the player
// to move at st (who, being to move in a finished game, can at best have
// drawn).
func terminalValue(st game.State) float64 {
	return game.Outcome(st.Winner(), st.ToMove())
}

// newTreeFor sizes and allocates a search tree for st under cfg.
func newTreeFor(cfg Config, st game.State) *tree.Tree {
	return tree.New(cfg.Tree, tree.SuggestCapacity(cfg.Playouts, st.NumActions()))
}
