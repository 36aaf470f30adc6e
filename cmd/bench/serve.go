package main

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/serve"
)

// nnTimer is what a traced run hands to the NewEvaluator seams: wrap puts a
// clock around the default evaluate.NewNN. A wrapped evaluator times a call
// only while the tracer is on and costs one atomic load while it is off. It
// sits below the service's cache view, so it sees only real forward passes.
type nnTimer struct {
	tr     *tracer
	parent int64

	busyNS atomic.Int64
	calls  atomic.Int64
}

func (t *nnTimer) wrap(inner evaluate.Evaluator) evaluate.Evaluator {
	return timedEvaluator{inner, t}
}

type timedEvaluator struct {
	inner evaluate.Evaluator
	t     *nnTimer
}

func (e timedEvaluator) Evaluate(input, policy []float32) float64 {
	t := e.t
	if !t.tr.on.Load() {
		return e.inner.Evaluate(input, policy)
	}
	start := time.Now()
	v := e.inner.Evaluate(input, policy)
	end := time.Now()
	t.busyNS.Add(int64(end.Sub(start)))
	t.calls.Add(1)
	t.tr.add(span{Name: "nn.forward", Start: at(start), End: at(end), Parent: t.parent})
	return v
}

// serveEnv is one running service with its users.
type serveEnv struct {
	svc  *serve.Service
	http *http.Server
	load *load
}

// startServe builds the net, starts the service behind net/http on a
// loopback port and launches the users. nnt is nil in an untraced run, which
// then runs the service's own default evaluator.
func startServe(w *workload, g game.Game, o runOpts, nnt *nnTimer) (*serveEnv, error) {
	net0 := w.newNet(g, o.seed)
	search := mcts.DefaultConfig()
	search.Playouts = w.playouts
	search.ReuseTree = true
	search.Seed = o.seed
	cfg := serve.Config{
		Game:          g,
		GameSpec:      w.gameSpec,
		Search:        search,
		MaxSessions:   w.maxSessions,
		TransposeSize: w.transpose,
		Net:           net0,
	}
	if nnt != nil {
		cfg.NewEvaluator = func(_ int64, n *nn.Network) evaluate.Evaluator { return nnt.wrap(evaluate.NewNN(n)) }
	}
	svc := serve.NewService(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(lis) // returns ErrServerClosed on Shutdown
	e := &serveEnv{svc: svc, http: hs}
	e.load = startLoad("http://"+lis.Addr().String(), g, w.gameSpec, w.users, o.seed, o.warmup(w))
	return e, nil
}

// close drains HTTP and tears the service down; the users must have
// finished.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.http.Shutdown(ctx)
	e.svc.Close()
}

// serveWindow aggregates the requests that completed inside one interval.
type serveWindow struct {
	seconds           float64
	attempted, failed int
	engineMoves       int
	moveRT, newRT     sample // ms, successful requests
	overhead          sample // ms, round trip minus the reply's search time
	rtSumMS           float64
	searchUS          int64
	playouts, evals   int64
	reused, trans     int64
	// First and last engine reply of the interval, and the first one's
	// playouts: rates run from reply to reply, so that a short slice is
	// not rounded to a whole number of moves.
	firstEnd, lastEnd int64
	firstPlayouts     int64
}

func windowOf(recs []rec, from, to int64) *serveWindow {
	w := &serveWindow{seconds: float64(to-from) / 1e9}
	for i := range recs {
		r := &recs[i]
		if r.end <= from || r.end > to {
			continue
		}
		w.attempted++
		if r.failed {
			w.failed++
			continue
		}
		ms := float64(r.rt) / 1e6
		if r.op == opMove {
			w.moveRT.add(ms)
		} else {
			w.newRT.add(ms)
		}
		if r.engine {
			if w.engineMoves == 0 || r.end < w.firstEnd {
				w.firstEnd, w.firstPlayouts = r.end, int64(r.playouts)
			}
			w.lastEnd = max(w.lastEnd, r.end)
			w.engineMoves++
			w.rtSumMS += ms
			w.overhead.add(ms - float64(r.searchUS)/1e3)
			w.searchUS += int64(r.searchUS)
			w.playouts += int64(r.playouts)
			w.evals += int64(r.evals)
			w.reused += int64(r.reused)
			w.trans += int64(r.trans)
		}
	}
	return w
}

// endToEnd gives the window's end-to-end values, keyed by metric name.
func (w *serveWindow) endToEnd() map[string]float64 {
	span := float64(w.lastEnd-w.firstEnd) / 1e9
	return map[string]float64{
		"moves_per_s":     ratio(float64(w.engineMoves-1), span),
		"playouts_per_s":  ratio(float64(w.playouts-w.firstPlayouts), span),
		"move_p50_ms":     w.moveRT.q(0.50),
		"iter_latency_us": ratio(float64(w.searchUS), float64(w.playouts)),
	}
}

// slices is how many equal parts of the measured window are also reported
// on their own.
const slices = 8

// runServe runs one serve_* workload.
func runServe(w *workload, o runOpts) (*WorkloadResult, error) {
	res := newResult(w, o)
	g := w.game()
	tr := newTracer()
	rootID := tr.id()

	var nnt *nnTimer
	if o.trace {
		nnt = &nnTimer{tr: tr, parent: rootID}
	}
	var env *serveEnv
	var setups []float64
	for i := 0; i < o.setups; i++ {
		begin := time.Now()
		if i == 0 {
			begin = processStart
		}
		var err error
		if env, err = startServe(w, g, o, nnt); err != nil {
			return nil, err
		}
		<-env.load.warmDone
		setups = append(setups, time.Since(begin).Seconds())
		if i < o.setups-1 {
			env.load.finish()
			env.close()
		}
	}

	var before serve.Statsz
	t0, t1, t2 := runWindows(o, tr, func() { before = env.svc.Stats() })
	after := env.svc.Stats()
	recs, held := env.load.finish()
	res.Errors = env.load.errs
	var liveMB float64
	if o.trace {
		liveMB = liveHeapMB(held + tr.bytes()) // users stopped, service still up
	}
	env.close()

	warm := windowOf(recs, -1, t0)
	meas := windowOf(recs, t0, t1)
	res.phase("warm-up", setups[len(setups)-1], warm.attempted, warm.failed)
	res.phase("measured", meas.seconds, meas.attempted, meas.failed)
	res.Attempted, res.Failed = meas.attempted, meas.failed

	perSlice := map[string][]float64{}
	for s := int64(0); s < slices; s++ {
		sw := windowOf(recs, t0+(t1-t0)*s/slices, t0+(t1-t0)*(s+1)/slices)
		for k, v := range sw.endToEnd() {
			perSlice[k] = append(perSlice[k], v)
		}
	}
	e2e := meas.endToEnd()
	// A window's median sides with the majority: when the host runs slow for
	// part of a window the median stays put or jumps, and from run to run it
	// spreads half again as far as the throughput does. The mean of the
	// slices' medians moves by as much as the slow part was long.
	var medians []float64
	for _, m := range perSlice["move_p50_ms"] {
		if m > 0 { // a slice of a smoke run may hold no move
			medians = append(medians, m)
		}
	}
	if len(medians) > 0 {
		e2e["move_p50_ms"] = mean(medians)
	}
	for k, v := range e2e {
		n := meas.engineMoves
		if k == "move_p50_ms" {
			n = meas.moveRT.n()
		}
		res.setE2E(k, v, n, perSlice[k])
	}
	res.setE2E("setup_s", median(setups), len(setups), setups)
	res.addDist("move", "ms", &meas.moveRT)

	if !o.trace {
		return res, nil
	}

	// Traced half: counters from Service.Stats() deltas and the evaluator
	// wrapper, spans from the client records, then the direct probes.
	trw := windowOf(recs, t1, t2)
	res.phase("traced", trw.seconds, trw.attempted, trw.failed)
	res.Attempted += trw.attempted
	res.Failed += trw.failed
	res.setLayer("proc.live_heap_mb", liveMB, 1)
	tr.add(span{Name: "window", ID: rootID, Start: t1, End: t2})
	for i := range recs {
		r := &recs[i]
		if r.end <= t1 || r.end > t2 || r.failed {
			continue
		}
		name := "client.move"
		if r.op == opNew {
			name = "client.new"
		}
		id := tr.id()
		tr.add(span{Name: name, ID: id, Req: id, Parent: rootID, Start: r.end - r.rt, End: r.end})
		if r.engine {
			// The reply says how long the search took, not when: centre it.
			d := int64(r.searchUS) * 1e3
			lead := max((r.rt-d)/2, 0)
			tr.add(span{Name: "serve.search", Req: id, Parent: id, Start: r.end - r.rt + lead, End: min(r.end-r.rt+lead+d, r.end)})
		}
	}

	moves := float64(trw.engineMoves)
	busyMS := float64(nnt.busyNS.Load()) / 1e6
	batches := float64(after.EvalBatches - before.EvalBatches)
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	res.setLayer("evaluate.batch_fill", ratio(float64(after.EvalRequests-before.EvalRequests), batches), int(batches))
	res.setLayer("evaluate.batches_per_move", ratio(batches, moves), trw.engineMoves)
	res.setLayer("evaluate.cache_hit_frac", ratio(hits, hits+misses), int(hits+misses))
	res.setLayer("evaluate.cache_occupancy_frac", float64(after.CacheLen)/float64(1<<16), after.CacheLen)
	res.setLayer("nn.busy_frac", busyMS/1e3/trw.seconds/float64(o.env.NProc), int(nnt.calls.Load()))
	res.setLayer("nn.evals_per_s", float64(nnt.calls.Load())/trw.seconds, int(nnt.calls.Load()))
	res.setLayer("mcts.playouts_per_move", ratio(float64(trw.playouts), moves), trw.engineMoves)
	res.setLayer("mcts.evals_per_move", ratio(float64(trw.evals), moves), trw.engineMoves)
	res.setLayer("mcts.reuse_frac", ratio(float64(trw.reused), float64(trw.reused+trw.playouts)), trw.engineMoves)
	res.setLayer("mcts.trans_hit_frac", ratio(float64(trw.trans), float64(trw.trans+trw.evals)), trw.engineMoves)
	res.setLayer("serve.sessions_evicted_per_s", float64(after.SessionsEvicted-before.SessionsEvicted)/trw.seconds, int(after.SessionsEvicted-before.SessionsEvicted))
	res.setLayer("serve.rejected_429", float64(after.MovesRejected-before.MovesRejected), trw.attempted)
	res.setLayer("client.move_p90_ms", trw.moveRT.q(0.90), trw.moveRT.n())
	untraced := ratio(float64(meas.engineMoves), meas.seconds)
	res.setLayer("trace.overhead_frac", 1-ratio(moves/trw.seconds, untraced), trw.engineMoves)

	p, err := runProbes(w, g, o, tr)
	if err != nil {
		return nil, err
	}
	res.mergeProbes(p)

	// What the layer means leave unexplained of the mean move round trip:
	// service overhead + tree work at the probed per-playout cost +
	// evaluations x the probed round trip at this client count.
	rtKey := "evaluate.probe_rt_us_c8"
	if w.users <= 2 {
		rtKey = "evaluate.probe_rt_us_c2"
	}
	treeMS := p.treeUSPerPlayout() * ratio(float64(trw.playouts), moves) / 1e3
	explained := trw.overhead.mean() + treeMS + ratio(float64(trw.evals), moves)*p.layer[rtKey].Value/1e3
	res.setLayer("trace.unattributed_frac", 1-ratio(explained, ratio(trw.rtSumMS, moves)), trw.engineMoves)

	res.setExtra("nn.busy_ms_per_move", ratio(busyMS, moves), "ms", int(nnt.calls.Load()))
	if trw.evals > 0 {
		res.setExtra("evaluate.eval_rt_us", (float64(trw.searchUS)-moves*treeMS*1e3)/float64(trw.evals), "us", int(trw.evals))
	}
	res.setExtra("serve.overhead_ms_p50", trw.overhead.q(0.50), "ms", trw.overhead.n())
	res.setExtra("serve.newgame_ms_p50", trw.newRT.q(0.50), "ms", trw.newRT.n())
	res.setExtra("serve.move_p99_ms", trw.moveRT.q(0.99), "ms", trw.moveRT.n())
	res.addDist("traced move", "ms", &trw.moveRT)
	return res, res.finishTrace(tr, o)
}
