package mcts

import (
	"sync"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tree"
)

// RootParallel implements the root-parallelisation baseline of Section 2.2
// (Kato & Takeuchi): W independent trees searched by W workers with the
// playout budget split evenly, root statistics aggregated at the end. No
// communication during the search — and correspondingly, "multiple workers
// visit repetitive states".
type RootParallel struct {
	cfg     Config
	workers int
	eval    evaluate.Evaluator
	r       *rng.Rand
}

// NewRootParallel creates the baseline with the given worker count.
func NewRootParallel(cfg Config, workers int, eval evaluate.Evaluator) *RootParallel {
	if workers < 1 {
		panic("mcts: root-parallel needs >= 1 worker")
	}
	if cfg.TransposeTable == nil && cfg.TransposeSize > 0 {
		// One table across the W private trees: the workers re-search the
		// same positions by construction ("multiple workers visit
		// repetitive states"), so sharing evaluations is exactly the waste
		// the transposition table exists to reclaim. StateStats updates are
		// atomic and the table is lock-striped, so the single-owner serial
		// sub-searches stay race-free.
		cfg.TransposeTable = tree.NewTransTable(cfg.TransposeSize)
		cfg.TransposeSize = 0
	}
	return &RootParallel{cfg: cfg, workers: workers, eval: eval, r: rng.New(cfg.Seed)}
}

// Name implements Engine.
func (e *RootParallel) Name() string { return "root-parallel" }

// Close implements Engine.
func (e *RootParallel) Close() {}

// Advance implements Engine. Root parallelisation has no persistent tree
// to warm: every Search builds W fresh private trees and discards them
// after aggregation, so subtree reuse is structurally impossible and
// Advance is a no-op.
func (e *RootParallel) Advance(action int) {}

// Search implements Engine.
func (e *RootParallel) Search(st game.State, dist []float32) Stats {
	perWorker := e.cfg.Playouts / e.workers
	if perWorker < 1 {
		perWorker = 1
	}
	subCfg := e.cfg
	subCfg.Playouts = perWorker
	engines := make([]*Serial, e.workers)
	for w := range engines {
		c := subCfg
		c.Seed = e.r.Uint64()
		engines[w] = NewSerial(c, e.eval)
	}
	dists := make([][]float32, e.workers)
	shards := make([]Stats, e.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dists[w] = make([]float32, len(dist))
			shards[w] = engines[w].Search(st, dists[w])
		}(w)
	}
	wg.Wait()
	var stats Stats
	for i := range dist {
		dist[i] = 0
	}
	for w := 0; w < e.workers; w++ {
		for i := range dist {
			dist[i] += dists[w][i] / float32(e.workers)
		}
		stats.Add(shards[w]) // field-complete merge: phase timings included
	}
	// The shard sums of Playouts and Duration describe the sub-searches,
	// not this move; overwrite with the aggregate view.
	stats.Playouts = perWorker * e.workers
	stats.Duration = time.Since(start)
	return stats
}

// LeafParallel implements the leaf-parallelisation baseline of Section 2.2
// (Cazenave & Jouandeau): a single sequential tree, but each leaf is
// evaluated K times concurrently and the values averaged. With a
// deterministic DNN evaluator the K evaluations are redundant — exactly the
// "wasted parallelism due to the lack of diverse evaluation coverage" the
// paper cites — which the experiments quantify.
//
// As a scheduler it is Serial with the evaluation awaited: one rollout at a
// time, no virtual loss, and each leaf the core returns is fanned out K-fold
// and waited for in submission order before the rollout is finished. A leaf
// served from the transposition table skips the fan-out entirely. The
// sequential tree persists between moves, so the baseline participates in
// subtree reuse like Serial.
type LeafParallel struct {
	core
	async evaluate.Async
	// reqs are the K engine-lifetime requests of one fan-out: the rollout
	// context's own, then K-1 more that share its encoded input and own a
	// policy buffer each.
	reqs []*evaluate.Request
}

// NewLeafParallel creates the baseline with K parallel evaluations per leaf.
func NewLeafParallel(cfg Config, k int, async evaluate.Async) *LeafParallel {
	if k < 1 {
		panic("mcts: leaf-parallel needs K >= 1")
	}
	e := &LeafParallel{async: async, reqs: make([]*evaluate.Request, k)}
	e.init(cfg, vlOff, nil, 1)
	return e
}

// Name implements Engine.
func (e *LeafParallel) Name() string { return "leaf-parallel" }

// Search implements Engine.
func (e *LeafParallel) Search(st game.State, dist []float32) Stats { return e.search(st, dist, e, 1) }

func (e *LeafParallel) run(root game.State, budget int) {
	sc := &e.scratch[0]
	if e.reqs[0] == nil {
		sc.init(root)
		e.reqs[0] = &sc.req
		for i := range e.reqs[1:] {
			e.reqs[i+1] = &evaluate.Request{Input: sc.req.Input, Policy: make([]float32, len(sc.req.Policy))}
		}
	}
	for p := 0; p < budget; p++ {
		if e.rollout(root, sc) {
			continue
		}
		// Fan out K evaluations of the same state; average the values and
		// keep the policy of the last one submitted.
		for _, req := range e.reqs {
			e.async.Submit(req)
		}
		var sum float64
		for _, req := range e.reqs {
			e.async.Wait(req)
			sum += req.Value
		}
		sc.stats.Evaluations += len(e.reqs)
		sc.lap(&sc.stats.EvalTime)
		e.finish(sc, sum/float64(len(e.reqs)), e.reqs[len(e.reqs)-1].Policy)
	}
}
