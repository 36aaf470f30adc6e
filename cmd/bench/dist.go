package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/parmcts/parmcts/internal/arena"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/dist"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/train"
	"github.com/parmcts/parmcts/internal/trajstore"
)

// selfplay_dist's fleet: cmd/worker's wiring at a size two cores can turn
// over often enough to time (cmd/worker defaults to 8 games x 100 playouts).
const (
	distWorkers    = 2
	distGames      = 4 // concurrent games per worker
	distInfWorkers = 2 // inference threads and in-flight bound per worker
	distRoundGames = distWorkers * distGames
	distGateEvery  = 2
	distSegment    = 64
)

// roundRec is one learner round callback.
type roundRec struct {
	at int64 // ns on the run's clock
	st train.LoopRoundStats
}

// workerOut is what a worker's Run returned, and how long it ran.
type workerOut struct {
	st   dist.WorkerStats
	wall time.Duration
}

// distEnv is one running learner with its workers.
type distEnv struct {
	dir     string
	trajCfg trajstore.Config
	traj    *trajstore.Store
	learner *dist.Learner
	workers []*dist.Worker
	warmup  int

	mu     sync.Mutex
	rounds []roundRec
	warm   chan struct{}

	learnerDone chan struct{}
	workerDone  chan workerOut
}

// startDist opens the stores under dir, starts the learner on a loopback TCP
// port and dials the workers into it.
func startDist(w *workload, g game.Game, o runOpts, dir string, nnt *nnTimer) (*distEnv, error) {
	e := &distEnv{
		dir: dir, warmup: o.warmup(w),
		trajCfg:     trajstore.Config{SegmentGames: distSegment, Game: games.SpecName(w.gameSpec)},
		warm:        make(chan struct{}),
		learnerDone: make(chan struct{}),
		workerDone:  make(chan workerOut, distWorkers),
	}
	store, err := checkpoint.NewStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	if e.traj, err = trajstore.Open(filepath.Join(dir, "traj"), e.trajCfg); err != nil {
		return nil, err
	}
	lis, err := dist.ListenTCP("127.0.0.1:0")
	if err != nil {
		e.traj.Close()
		return nil, err
	}
	e.learner, err = dist.NewLearner(lis, dist.LearnerConfig{
		Game:       g,
		GameSpec:   w.gameSpec,
		Store:      store,
		NewNet:     func() *nn.Network { return w.newNet(g, o.seed) },
		Replay:     train.NewReplay(50000),
		Traj:       e.traj,
		Augment:    train.AugmenterFor(g),
		RoundGames: distRoundGames,
		Loop: train.LoopConfig{
			Rounds:        1 << 30, // the window, not a count, ends the run
			GateEvery:     distGateEvery,
			SGDIterations: 8,
			BatchSize:     64,
			LR:            0.01,
			Momentum:      0.9,
			WeightDecay:   1e-4,
			MinSamples:    64,
			Seed:          o.seed,
		},
		// WinThreshold 0: every candidate clears the gate, so each gate
		// does checkpoint.Save + broadcast + worker swap, the same work
		// whatever the seed.
		Gate: arena.GateConfig{Games: 4, Playouts: 32, Temperature: 0.2, TempMoves: 6, Seed: o.seed + 1_000_003},
	})
	if err != nil {
		lis.Close()
		e.traj.Close()
		return nil, err
	}
	go func() {
		defer close(e.learnerDone)
		e.learner.Run(e.onRound)
	}()
	for i := 0; i < distWorkers; i++ {
		cfg := dist.WorkerConfig{
			ID:        fmt.Sprintf("bench-%d", i),
			Game:      g,
			GameSpec:  w.gameSpec,
			Dial:      dist.TCPDialer(lis.Addr()),
			Games:     distGames,
			Playouts:  w.playouts,
			Workers:   distInfWorkers,
			TempMoves: 6,
			Seed:      o.seed + uint64(i+1)*1_000_033,
		}
		if nnt != nil {
			cfg.NewEvaluator = func(n *nn.Network) evaluate.Evaluator { return nnt.wrap(evaluate.NewNN(n)) }
		}
		wk, err := dist.NewWorker(cfg)
		if err != nil {
			e.close()
			return nil, err
		}
		e.workers = append(e.workers, wk)
		go func() {
			begin := time.Now()
			st := wk.Run()
			e.workerDone <- workerOut{st, time.Since(begin)}
		}()
	}
	return e, nil
}

func (e *distEnv) onRound(st train.LoopRoundStats) {
	e.mu.Lock()
	e.rounds = append(e.rounds, roundRec{now(), st})
	n := len(e.rounds)
	e.mu.Unlock()
	if n == e.warmup {
		close(e.warm)
	}
}

// close stops the learner, then the workers (each after its round in
// flight), waits for all of them and closes the replay store.
func (e *distEnv) close() []workerOut {
	e.learner.Stop()
	<-e.learnerDone
	for _, wk := range e.workers {
		wk.Stop()
	}
	outs := make([]workerOut, 0, len(e.workers))
	for range e.workers {
		outs = append(outs, <-e.workerDone)
	}
	e.traj.Close()
	return outs
}

// distWindow aggregates the learner rounds of one interval. It runs from
// the last round boundary at or before from to the last one inside the
// interval, over an even number of rounds, so that it neither cuts a round
// nor holds more gated rounds than ungated ones.
type distWindow struct {
	seconds      float64
	rounds       int
	moves, games int
	cycleMS      sample // ms per engine move, one sample per gate cycle
	gaps         sample // s between round callbacks
	gated, plain sample // the same, split by whether the round ran a gate
	gen, trainT  sample
	gateS        float64
	first, last  int // indexes into the rounds slice
}

func distWindowOf(rounds []roundRec, from, to int64) *distWindow {
	w := &distWindow{first: -1}
	start := -1
	for i, r := range rounds {
		if r.at <= from {
			start = i
		} else if r.at <= to {
			w.last = i
		}
	}
	if start < 0 || w.last <= start {
		return w
	}
	if (w.last-start)%distGateEvery != 0 {
		w.last--
	}
	w.first = start + 1
	w.rounds = w.last - start
	w.seconds = float64(rounds[w.last].at-rounds[start].at) / 1e9
	for i := w.first; i <= w.last; i++ {
		st := rounds[i].st
		w.moves += st.Moves
		w.games += st.Games
		gap := float64(rounds[i].at-rounds[i-1].at) / 1e9
		w.gaps.add(gap)
		if st.Gate != nil {
			w.gated.add(gap)
		} else {
			w.plain.add(gap)
		}
		w.gen.add(st.GenTime.Seconds())
		w.trainT.add(st.TrainTime.Seconds())
		if st.Gate != nil {
			w.gateS += st.Gate.Elapsed.Seconds()
		}
		if (i-start)%distGateEvery == 0 {
			cycle := float64(rounds[i].at-rounds[i-distGateEvery].at) / 1e6
			moves := 0
			for j := i - distGateEvery + 1; j <= i; j++ {
				moves += rounds[j].st.Moves
			}
			w.cycleMS.add(ratio(cycle, float64(moves)))
		}
	}
	return w
}

// runDist runs selfplay_dist.
func runDist(w *workload, o runOpts) (*WorkloadResult, error) {
	res := newResult(w, o)
	g := w.game()
	tr := newTracer()
	rootID := tr.id()
	var nnt *nnTimer
	if o.trace {
		nnt = &nnTimer{tr: tr, parent: rootID}
	}

	var env *distEnv
	var setups []float64
	for i := 0; i < o.setups; i++ {
		begin := time.Now()
		if i == 0 {
			begin = processStart
		}
		dir, err := os.MkdirTemp(o.tmp, "dist-")
		if err != nil {
			return nil, err
		}
		if env, err = startDist(w, g, o, dir, nnt); err != nil {
			return nil, err
		}
		<-env.warm
		setups = append(setups, time.Since(begin).Seconds())
		if i < o.setups-1 {
			env.close()
			os.RemoveAll(dir)
		}
	}

	atT0 := env.learner.Stats()
	var atT1 dist.LearnerStats
	t0, t1, t2 := runWindows(o, tr, func() { atT1 = env.learner.Stats() })
	atT2 := env.learner.Stats()
	var liveMB float64
	if o.trace {
		liveMB = liveHeapMB(tr.bytes()) // learner and workers still running
	}
	stored := env.traj.Games()
	degraded := env.traj.ReadOnly()
	outs := env.close()
	final := env.learner.Stats()
	rounds := env.rounds
	defer os.RemoveAll(env.dir)

	// After a reopen the store must hold every game it said it held, and
	// that count must lie between the games the loop consumed and the
	// episodes the learner accepted.
	consumed, consumedMoves := 0, 0
	for _, r := range rounds {
		consumed += r.st.Games
		consumedMoves += r.st.Moves
	}
	reopenStart := time.Now()
	reopened, err := trajstore.Open(filepath.Join(env.dir, "traj"), env.trajCfg)
	reopenMS := float64(time.Since(reopenStart)) / 1e6
	storeBad := 0
	if err != nil {
		storeBad = 1
		res.Errors = append(res.Errors, fmt.Sprintf("replay store reopen: %v", err))
	} else {
		if n := reopened.Games(); degraded || n < stored || n < consumed || int64(n) > final.Episodes {
			storeBad = 1
			res.Errors = append(res.Errors, fmt.Sprintf("replay store holds %d games after reopen: it reported %d, the loop consumed %d, the learner accepted %d, degraded=%v",
				n, stored, consumed, final.Episodes, degraded))
		}
		reopened.Close()
	}

	var playouts int64
	var wallS, iterUS float64
	var episodes, dropped, reconnects, swaps int
	for _, out := range outs {
		playouts += out.st.Playouts
		wallS += out.wall.Seconds() / float64(len(outs))
		iterUS += ratio(out.wall.Seconds()*1e6*distGames, float64(out.st.Playouts)) / float64(len(outs))
		episodes += out.st.Episodes
		dropped += out.st.Dropped
		reconnects += out.st.Reconnects
		swaps += out.st.Swaps
	}

	// An operation is one episode reaching the learner; a rejected frame
	// fails where it happens. Dropped episodes and a bad store are known
	// only once the run has ended and count against the measured phase.
	phase := func(name string, from, to int64, a, b dist.LearnerStats, late int) (int, int) {
		attempted := int(b.Episodes + b.Rejected - a.Episodes - a.Rejected)
		failed := int(b.Rejected-a.Rejected) + late
		res.phase(name, float64(to-from)/1e9, attempted, failed)
		return attempted, failed
	}
	phase("warm-up", t0-int64(setups[len(setups)-1]*1e9), t0, dist.LearnerStats{}, atT0, 0)
	res.Attempted, res.Failed = phase("measured", t0, t1, atT0, atT1, dropped+storeBad)

	// moves_per_s and move_p50_ms come from learner rounds inside the
	// window; worker counters exist only for a worker's whole run.
	meas := distWindowOf(rounds, t0, t1)
	res.setE2E("moves_per_s", ratio(float64(meas.moves), meas.seconds), meas.rounds, nil)
	res.setE2E("move_p50_ms", meas.cycleMS.q(0.50), meas.cycleMS.n(), nil)
	res.setE2E("playouts_per_s", ratio(float64(playouts), wallS), int(playouts), nil)
	res.setE2E("iter_latency_us", iterUS, int(playouts), nil)
	res.setE2E("setup_s", median(setups), len(setups), setups)
	res.addDist("round", "s", &meas.gaps)
	if !o.trace {
		return res, nil
	}

	a, f := phase("traced", t1, t2, atT1, atT2, 0)
	res.Attempted += a
	res.Failed += f
	res.setLayer("proc.live_heap_mb", liveMB, 1)
	trw := distWindowOf(rounds, t1, t2)
	tr.add(span{Name: "window", ID: rootID, Start: t1, End: t2})
	for i := trw.first; trw.rounds > 0 && i <= trw.last; i++ {
		st, end := rounds[i].st, rounds[i].at
		id := tr.id()
		tr.add(span{Name: "dist.round", ID: id, Req: id, Parent: rootID, Start: rounds[i-1].at, End: end})
		var gate int64
		if st.Gate != nil {
			gate = int64(st.Gate.Elapsed)
			tr.add(span{Name: "arena.gate", Req: id, Parent: id, Start: end - gate, End: end})
		}
		// SGD precedes the gate; generation ran ahead of both, beside the
		// previous round's SGD, so it may start before its round span.
		trainStart := end - gate - int64(st.TrainTime)
		tr.add(span{Name: "train", Req: id, Parent: id, Start: trainStart, End: end - gate})
		tr.add(span{Name: "gen", Req: id, Parent: id, Start: trainStart - int64(st.GenTime), End: trainStart})
	}

	// The evaluator wrapper counts the whole traced half; rounds cover the
	// part of it between round boundaries. share scales one to the other.
	halfS := float64(t2-t1) / 1e9
	share := trw.seconds / halfS
	moves := float64(trw.moves)
	calls := float64(nnt.calls.Load())
	busyS := float64(nnt.busyNS.Load()) / 1e9
	playoutsPerMove := ratio(float64(playouts), float64(episodes)*ratio(float64(consumedMoves), float64(consumed)))
	// dist.Worker keeps its evaluate.Server and engines private: batch
	// fill, cache and tree-reuse counters cannot be read on this workload,
	// and no service runs.
	for _, k := range []string{
		"evaluate.batch_fill", "evaluate.batches_per_move", "evaluate.cache_hit_frac", "evaluate.cache_occupancy_frac",
		"mcts.reuse_frac", "mcts.trans_hit_frac", "serve.sessions_evicted_per_s", "serve.rejected_429",
	} {
		res.setLayer(k, 0, 0)
	}
	res.setLayer("nn.busy_frac", busyS/halfS/float64(o.env.NProc), int(calls))
	res.setLayer("nn.evals_per_s", calls/halfS, int(calls))
	res.setLayer("mcts.playouts_per_move", playoutsPerMove, int(playouts))
	res.setLayer("mcts.evals_per_move", ratio(calls*share, moves), int(calls))
	res.setLayer("client.move_p90_ms", trw.cycleMS.q(0.90), trw.cycleMS.n())
	res.setExtra("dist.episodes_accepted", float64(final.Episodes), "count", episodes)
	res.setExtra("dist.frames_rejected", float64(final.Rejected), "count", episodes)
	res.setExtra("dist.episodes_dropped", float64(dropped), "count", episodes)
	res.setExtra("dist.reconnects", float64(reconnects), "count", len(outs))
	res.setExtra("dist.broadcasts", float64(final.Broadcasts), "count", len(rounds))
	res.setExtra("dist.swaps", float64(swaps), "count", len(outs))
	untraced := ratio(float64(meas.moves), meas.seconds)
	res.setLayer("trace.overhead_frac", 1-ratio(ratio(moves, trw.seconds), untraced), trw.rounds)

	p, err := runProbes(w, g, o, tr)
	if err != nil {
		return nil, err
	}
	p.set("trajstore.open_ms_per_kgame", ratio(reopenMS*1000, float64(stored)), stored)
	res.mergeProbes(p)

	// Core time the layer means leave unexplained between the round
	// boundaries: evaluations at the probed single-thread forward cost (the
	// wrapper's wall time counts waiting for a core: 4 evaluator threads
	// share 2), tree work at the probed per-playout cost, SGD (all cores)
	// and the gate (one core), against every core.
	nproc := float64(o.env.NProc)
	var trainS float64
	for _, s := range trw.trainT.xs {
		trainS += s
	}
	explained := calls*share*p.layer["nn.forward_us"].Value/1e6 + p.treeUSPerPlayout()/1e6*playoutsPerMove*moves + trainS*nproc + trw.gateS
	res.setLayer("trace.unattributed_frac", 1-ratio(explained, trw.seconds*nproc), trw.rounds)

	res.setExtra("nn.busy_ms_per_move", ratio(busyS*1e3*share, moves), "ms", int(calls))
	res.setExtra("dist.round_s_p50", trw.gaps.q(0.5), "s", trw.gaps.n())
	res.setExtra("selfplay.gen_s_p50", trw.gen.q(0.5), "s", trw.gen.n())
	res.setExtra("train.round_train_s_p50", trw.trainT.q(0.5), "s", trw.trainT.n())
	res.setExtra("arena.gate_s_p50", trw.gated.q(0.5)-trw.plain.q(0.5), "s", trw.gated.n())
	return res, res.finishTrace(tr, o)
}
