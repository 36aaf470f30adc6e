package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/adaptive"
	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/dist"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/perfmodel"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tensor"
	"github.com/parmcts/parmcts/internal/trajstore"
)

// Probes are direct timed calls into each layer's public functions with the
// workload's game, net and config, made after the load has stopped. They
// are single-threaded unless their name says otherwise, and each is cut off
// by a time budget so that a traced run stays inside the contract's limits.

type probeResult struct {
	layer map[string]Metric
}

// treeUSPerPlayout is the probed tree work of one playout.
func (p *probeResult) treeUSPerPlayout() float64 {
	return p.layer["mcts.select_us"].Value + p.layer["mcts.expand_us"].Value + p.layer["mcts.backup_us"].Value
}

func (p *probeResult) set(name string, v float64, n int) {
	p.layer[name] = Metric{Value: v, Unit: unitOf(perLayerDefs, name), N: n}
}

// timeBox calls fn at least min times and then until budget has passed, and
// returns the mean nanoseconds per call and the number of calls.
func timeBox(budget time.Duration, min int, fn func()) (float64, int) {
	start := time.Now()
	n := 0
	for n < min || time.Since(start) < budget {
		fn()
		n++
	}
	return float64(time.Since(start)) / float64(n), n
}

// positions plays seeded random games and returns n distinct-ish encoded
// positions of the workload's game.
func positions(g game.Game, r *rng.Rand, n int) [][]float32 {
	c, h, w := g.EncodedShape()
	out := make([][]float32, 0, n)
	var legal []int
	for len(out) < n {
		st := g.NewInitial()
		for !st.Terminal() && len(out) < n {
			in := make([]float32, c*h*w)
			st.Encode(in)
			out = append(out, in)
			legal = st.LegalMoves(legal[:0])
			st.Play(legal[r.Intn(len(legal))])
		}
	}
	return out
}

// runProbes measures every probe metric.
func runProbes(w *workload, g game.Game, o runOpts, tr *tracer) (*probeResult, error) {
	p := &probeResult{layer: map[string]Metric{}}
	r := rng.New(o.seed ^ 0xBE7C4)
	net0 := w.newNet(g, o.seed)
	budget := time.Duration(o.probeMS) * time.Millisecond
	dir, err := os.MkdirTemp(o.tmp, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	probeTensor(p, net0, budget)
	probeNN(p, g, net0, r, budget)
	probeEvaluate(p, w, g, net0, r, budget, tr)
	probeMCTS(p, w, g, net0, o.seed, budget)
	probeAdaptive(p, w, g, net0, o.seed)
	probeGame(p, g, r, budget)
	if err := probeStorage(p, w, g, net0, r, budget, dir); err != nil {
		return nil, err
	}
	probeTrain(p, g, net0, r, o.smoke)
	return p, nil
}

// probeTensor times tensor.MatMul at the net's largest conv GEMM for a
// batch of 8: OutC x (InC*9) times (InC*9) x (8*H*W).
func probeTensor(p *probeResult, net0 *nn.Network, budget time.Duration) {
	cfg := net0.Cfg
	m, k, n := 0, 0, 8*cfg.H*cfg.W
	inC := cfg.InC
	for _, outC := range cfg.Trunk {
		if outC*inC*9 > m*k {
			m, k = outC, inC*9
		}
		inC = outC
	}
	a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%7) - 3
	}
	for i := range b {
		b[i] = float32(i%5) - 2
	}
	ns, iters := timeBox(budget, 3, func() { tensor.MatMul(c, a, b, m, k, n) })
	p.set("tensor.gemm_gflops", 2*float64(m)*float64(k)*float64(n)/ns, iters)
}

// probeNN times what production runs per evaluation (evaluate.NN.Evaluate,
// with its allocations) and the batched fast paths production does not run.
func probeNN(p *probeResult, g game.Game, net0 *nn.Network, r *rng.Rand, budget time.Duration) {
	in := positions(g, r, 8)
	policy := make([]float32, g.NumActions())
	ev := evaluate.NewNN(net0)
	ev.Evaluate(in[0], policy) // builds the pooled workspace

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	i := 0
	ns, iters := timeBox(budget, 3, func() { ev.Evaluate(in[i%8], policy); i++ })
	runtime.ReadMemStats(&after)
	p.set("nn.forward_us", ns/1e3, iters)
	p.set("nn.forward_allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(iters), iters)
	p.set("nn.forward_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(iters), iters)

	policies := make([][]float32, 8)
	for j := range policies {
		policies[j] = make([]float32, g.NumActions())
	}
	values := make([]float64, 8)
	ws := nn.NewBatchWorkspace(net0, 8)
	ns, iters = timeBox(budget, 3, func() { net0.ForwardBatch(ws, in, policies, values) })
	p.set("nn.forward_b8_us_per_sample", ns/1e3/8, iters)

	// A zero cost model: the hosted backend's own compute, no modelled link.
	hosted, err := accel.NewBackend("hosted", accel.BackendSpec{Net: net0, Workers: 1})
	if err != nil {
		panic(err) // "hosted" is registered by the accel package itself
	}
	ns, iters = timeBox(budget, 3, func() { hosted.Infer(in, policies, values) })
	hosted.Close()
	p.set("accel.hosted_b8_us_per_sample", ns/1e3/8, iters)
}

// timedBackend times RunBatch of the backend it wraps.
type timedBackend struct {
	inner   evaluate.Backend
	tr      *tracer
	parent  int64
	execNS  atomic.Int64
	batches atomic.Int64
}

func (b *timedBackend) RunBatch(batch []*evaluate.Request) {
	start := time.Now()
	b.inner.RunBatch(batch)
	end := time.Now()
	b.execNS.Add(int64(end.Sub(start)))
	b.batches.Add(1)
	b.tr.add(span{Name: "evaluate.run_batch", Start: at(start), End: at(end), Parent: b.parent})
}

// probeEvaluate drives an evaluate.Server configured as the workload's
// production server (the service's batch 8 behind the sharded cache, or the
// worker's batch 1 with persistent launchers) with 2 and 8 synchronous
// clients on distinct inputs. Wait is the round trip minus RunBatch: queue
// wait for the batch to fill or the deadline to pass, plus delivery.
func probeEvaluate(p *probeResult, w *workload, g game.Game, net0 *nn.Network, r *rng.Rand, budget time.Duration, tr *tracer) {
	for _, clients := range []int{2, 8} {
		var eval evaluate.Evaluator = evaluate.NewNN(net0)
		cfg := evaluate.ServerConfig{Batch: 1, FlushDeadline: evaluate.DefaultFlushDeadline, MaxOutstanding: distGames * distInfWorkers * 2, LaunchWorkers: distInfWorkers}
		workers := distInfWorkers
		if !w.dist {
			eval = evaluate.NewCachedSharded(eval, 1<<16, 16).View(1, eval)
			cfg = evaluate.ServerConfig{Batch: 8, FlushDeadline: evaluate.DefaultFlushDeadline, MaxOutstanding: 256}
			workers = runtime.GOMAXPROCS(0)
		}
		parent := tr.id()
		tb := &timedBackend{inner: &evaluate.EvaluatorBackend{Eval: eval, Workers: workers}, tr: tr, parent: parent}
		srv := evaluate.NewServer(tb, cfg)
		begin := time.Now()
		var rtNS, calls atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			cl := srv.NewSyncClient()
			in := positions(g, rng.New(r.Uint64()), 64)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cl.Close()
				policy := make([]float32, g.NumActions())
				for i := 0; i < 4 || time.Since(begin) < budget; i++ {
					// Perturb one plane cell so the cache never hits.
					in[i%64][0] = float32(i) + 2
					start := time.Now()
					cl.Evaluate(in[i%64], policy)
					rtNS.Add(int64(time.Since(start)))
					calls.Add(1)
				}
			}()
		}
		wg.Wait()
		srv.Close()
		tr.add(span{Name: "probe.evaluate", ID: parent, Start: at(begin), End: now()})
		n := int(calls.Load())
		rt := float64(rtNS.Load()) / float64(n) / 1e3
		exec := float64(tb.execNS.Load()) / float64(tb.batches.Load()) / 1e3
		suffix := "_c2"
		if clients == 8 {
			suffix = "_c8"
			p.set("evaluate.probe_exec_us_c8", exec, int(tb.batches.Load()))
		}
		p.set("evaluate.probe_rt_us"+suffix, rt, n)
		p.set("evaluate.probe_wait_us"+suffix, rt-exec, n)
	}

	cached := evaluate.NewCached(evaluate.NewNN(net0), 1<<16)
	in := positions(g, r, 1)[0]
	policy := make([]float32, g.NumActions())
	cached.Evaluate(in, policy)
	ns, iters := timeBox(budget/4, 100, func() { cached.Evaluate(in, policy) })
	p.set("evaluate.cache_hit_ns", ns, iters)
}

// probeMCTS plays one game with the serving engine (mcts.NewSerial,
// ReuseTree, the workload's playouts and table) under Config.Profile and
// reports the per-playout phase times, the tree work per move and the cost
// of Engine.Advance.
func probeMCTS(p *probeResult, w *workload, g game.Game, net0 *nn.Network, seed uint64, budget time.Duration) {
	cfg := mcts.DefaultConfig()
	cfg.Playouts = w.playouts
	cfg.ReuseTree = true
	cfg.Seed = seed
	cfg.Profile = true
	cfg.TransposeSize = w.transpose
	eng := mcts.NewSerial(cfg, evaluate.NewNN(net0))
	defer eng.Close()

	var total mcts.Stats
	var advanceNS time.Duration
	moves, advances := 0, 0
	distBuf := make([]float32, g.NumActions())
	begin := time.Now()
	for moves < 2 || time.Since(begin) < 4*budget {
		st := g.NewInitial()
		eng.Advance(-1)
		for !st.Terminal() && (moves < 2 || time.Since(begin) < 4*budget) {
			total.Add(eng.Search(st, distBuf))
			moves++
			best := 0
			for a, v := range distBuf {
				if v > distBuf[best] {
					best = a
				}
			}
			if !st.Legal(best) {
				best = st.LegalMoves(nil)[0]
			}
			st.Play(best)
			t := time.Now()
			eng.Advance(best)
			advanceNS += time.Since(t)
			advances++
		}
	}
	n := float64(total.Playouts)
	us := func(d time.Duration) float64 { return ratio(float64(d)/1e3, n) }
	p.set("mcts.select_us", us(total.SelectTime), total.Playouts)
	p.set("mcts.expand_us", us(total.ExpandTime), total.Playouts)
	p.set("mcts.backup_us", us(total.BackupTime), total.Playouts)
	p.set("mcts.eval_us", us(total.EvalTime), total.Playouts)
	p.set("mcts.tree_ms_per_move", float64(total.SelectTime+total.ExpandTime+total.BackupTime)/1e6/float64(moves), moves)
	p.set("mcts.advance_us", float64(advanceNS)/1e3/float64(advances), advances)
}

// probeAdaptive runs the design-time workflow (adaptive.Configure, N = 4,
// CPU platform) forced to each scheme and left to choose, searches one
// move with each engine, and compares the measured per-iteration latencies
// with each other and with the model's predictions.
func probeAdaptive(p *probeResult, w *workload, g game.Game, net0 *nn.Network, seed uint64) {
	const n = 4
	search := mcts.DefaultConfig()
	search.Playouts = w.playouts
	search.Seed = seed
	opts := adaptive.Options{Search: search, Workers: n, Platform: adaptive.PlatformCPU, Evaluator: evaluate.NewNN(net0)}
	distBuf := make([]float32, g.NumActions())
	run := func(force *perfmodel.Scheme) (mcts.Stats, adaptive.Decision, time.Duration) {
		o := opts
		o.ForceScheme = force
		begin := time.Now()
		eng, err := adaptive.Configure(g, o)
		took := time.Since(begin)
		if err != nil {
			panic(err) // the options above are complete
		}
		defer eng.Close()
		return eng.Search(g.NewInitial(), distBuf), eng.Decision, took
	}
	shared, local := perfmodel.SchemeShared, perfmodel.SchemeLocal
	ss, _, _ := run(&shared)
	ls, _, _ := run(&local)
	as, dec, took := run(nil)
	us := func(s mcts.Stats) float64 { return float64(s.PerIteration()) / 1e3 }
	p.set("mcts.shared_iter_us", us(ss), ss.Playouts)
	p.set("mcts.local_iter_us", us(ls), ls.Playouts)
	p.set("mcts.wasted_eval_frac", ratio(float64(ss.WastedEvals), float64(ss.Evaluations)), ss.Evaluations)
	p.set("adaptive.configure_ms", float64(took)/1e6, 1)
	p.set("adaptive.regret", ratio(us(as), min(us(ss), us(ls))), as.Playouts)
	p.set("perfmodel.residual_shared", ratio(us(ss), float64(dec.Choice.PredictedShared)/1e3), ss.Playouts)
	p.set("perfmodel.residual_local", ratio(us(ls), float64(dec.Choice.PredictedLocal)/1e3), ls.Playouts)
}

func probeGame(p *probeResult, g game.Game, r *rng.Rand, budget time.Duration) {
	st := g.NewInitial()
	var legal []int
	ns, iters := timeBox(budget/4, 100, func() {
		if st.Terminal() {
			st = g.NewInitial()
		}
		legal = st.LegalMoves(legal[:0])
		st.Play(legal[r.Intn(len(legal))])
	})
	p.set("game.step_ns", ns, iters)
	c, h, w := g.EncodedShape()
	buf := make([]float32, c*h*w)
	ns, iters = timeBox(budget/4, 100, func() { st.Encode(buf) })
	p.set("game.encode_ns", ns, iters)
}

// episode builds a replay episode of a typical game's size.
func episode(g game.Game, r *rng.Rand) trajstore.Episode {
	in := positions(g, r, min(g.MaxGameLength(), 32))
	ep := trajstore.Episode{Moves: len(in), Winner: game.P1}
	for _, x := range in {
		pol := make([]float32, g.NumActions())
		pol[r.Intn(len(pol))] = 1
		ep.Samples = append(ep.Samples, nn.Sample{Input: x, Policy: pol, Value: 1})
	}
	return ep
}

// probeStorage times the wire, the durable append, the store reopen and a
// checkpoint commit.
func probeStorage(p *probeResult, w *workload, g game.Game, net0 *nn.Network, r *rng.Rand, budget time.Duration, dir string) error {
	ep := episode(g, r)

	// One episode-sized message over the production transport on
	// loopback, acknowledged by an empty one.
	lis, err := dist.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
			if c.Send(dist.Msg{Type: 2}) != nil {
				return
			}
		}
	}()
	conn, err := dist.TCPDialer(lis.Addr())()
	if err != nil {
		lis.Close()
		return err
	}
	msg := dist.Msg{Type: 2, Payload: trajstore.EncodeFrame(ep)}
	var wireErr error
	ns, iters := timeBox(budget/2, 10, func() {
		if err := conn.Send(msg); err != nil {
			wireErr = err
		}
		if _, err := conn.Recv(); err != nil {
			wireErr = err
		}
	})
	conn.Close()
	lis.Close()
	<-echoDone
	if wireErr != nil {
		return wireErr
	}
	p.set("dist.send_recv_us", ns/1e3, iters)

	cfg := trajstore.Config{SegmentGames: distSegment, Game: games.SpecName(w.gameSpec)}
	trajDir := filepath.Join(dir, "traj")
	store, err := trajstore.Open(trajDir, cfg)
	if err != nil {
		return err
	}
	var appendErr error
	ns, iters = timeBox(budget, 10, func() {
		if err := store.Append(ep); err != nil {
			appendErr = err
		}
	})
	if err := store.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	p.set("trajstore.append_us", ns/1e3, iters)
	// selfplay_dist replaces this with the reopen of the store it wrote.
	begin := time.Now()
	again, err := trajstore.Open(trajDir, cfg)
	if err != nil {
		return err
	}
	took := time.Since(begin)
	games := again.Games()
	again.Close()
	p.set("trajstore.open_ms_per_kgame", ratio(float64(took)/1e6*1000, float64(games)), games)

	ckpt, err := checkpoint.NewStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		return err
	}
	var saveErr error
	ns, iters = timeBox(budget/2, 2, func() {
		if _, err := ckpt.Save(net0, checkpoint.Manifest{Game: w.gameSpec}); err != nil {
			saveErr = err
		}
	})
	if saveErr != nil {
		return saveErr
	}
	p.set("checkpoint.save_ms", ns/1e6, iters)
	return nil
}

// probeTrain times one SGD step of the learner's size (64 samples, all
// cores) on a clone of the workload's net.
func probeTrain(p *probeResult, g game.Game, net0 *nn.Network, r *rng.Rand, smoke bool) {
	ep := episode(g, r)
	batch := make([]nn.Sample, 64)
	for i := range batch {
		batch[i] = ep.Samples[i%len(ep.Samples)]
	}
	clone := net0.Clone()
	opt := nn.NewSGD(0.01, 0.9, 1e-4)
	steps := 2
	if smoke {
		steps = 1
	} else {
		nn.TrainBatch(clone, opt, batch, 0) // sizes the optimiser state
	}
	ns, iters := timeBox(0, steps, func() { nn.TrainBatch(clone, opt, batch, 0) })
	p.set("train.sgd_step_ms", ns/1e6, iters)
}
