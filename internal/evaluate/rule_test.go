package evaluate

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/rng"
)

// ruleWorld is one state of the launch rule's checker: the queue, plus the
// environment around it that the rule cannot see — the batches executing,
// the armed timer, the stopped timer whose event may arrive anyway (Stop can
// lose the race), and the requests a caller is blocked waiting on.
type ruleWorld struct {
	q         queue
	running   []uint8 // executing batches, as request bitmasks
	timer     int     // the generation the armed timer fires for, -1 for none
	stale     int     // the last stopped timer's generation, -1 for none
	waited    uint8   // requests with a blocked waiter
	submitted int64
	trace     string // the events that led here
}

const (
	ruleSlots = 3  // most slots open at once
	ruleDepth = 12 // events from an empty queue
)

// ruleReqs are the checker's requests, four of them; a state names each by its
// index, and its bit in a mask.
var ruleReqs = []*Request{{}, {}, {}, {}}

func (w *ruleWorld) clone() *ruleWorld {
	c := *w
	c.q.buf = slices.Clone(w.q.buf)
	c.running = slices.Clone(w.running)
	return &c
}

// key identifies a state for the visited set. It leaves out the counters,
// which step never reads and apply checks on every step. Timers count
// relative to the current generation, and a stopped timer older than the
// last one is as stale as it, so they read alike.
func (w *ruleWorld) key() string {
	var b strings.Builder
	for _, r := range w.q.buf {
		fmt.Fprint(&b, slices.Index(ruleReqs, r))
	}
	running := slices.Clone(w.running)
	slices.Sort(running)
	rel := func(g int) int {
		if g < 0 {
			return -9
		}
		return max(g-w.q.gen, -1)
	}
	fmt.Fprint(&b, "|", w.q.slots, running, w.waited, rel(w.timer), rel(w.stale))
	return b.String()
}

// idle reports whether request i is neither buffered nor executing.
func (w *ruleWorld) idle(i int) bool {
	if slices.Contains(w.q.buf, ruleReqs[i]) {
		return false
	}
	for _, m := range w.running {
		if m&(1<<i) != 0 {
			return false
		}
	}
	return true
}

// apply steps the rule on e and applies its effect as Server.do does: a
// take starts executing and stops the armed timer, an arm arms one. It checks
// what a single step promises and returns the first violation.
func (w *ruleWorld) apply(e event, what string) error {
	before := w.q
	held := slices.Clone(w.q.buf) // the buffer the event leaves, before any take
	if e.op == opSubmit {
		held = append(held, e.req)
	}
	eff := w.q.step(e)
	w.trace += " " + what
	if eff.refused != (e.op == opEnd && e.n > before.slots) {
		return fmt.Errorf("%s refused %v", what, eff.refused)
	}
	if eff.refused && (w.q.slots != before.slots || !slices.Equal(w.q.buf, held)) {
		return fmt.Errorf("refused %s changed the queue", what)
	}
	if eff.arm {
		if e.op != opSubmit || !w.q.deadline || len(w.q.buf) != 1 || eff.gen != w.q.gen || w.timer >= 0 {
			return fmt.Errorf("%s armed a timer for generation %d with %d buffered", what, eff.gen, len(w.q.buf))
		}
		w.timer = eff.gen
	}
	if (e.op == opSubmit || e.op == opEnd) && !eff.refused {
		n := len(held)
		if ready := n >= w.q.batch || w.q.slots > 0 && n >= w.q.slots; ready != (eff.take != nil) {
			return fmt.Errorf("%s launched %v with the threshold or quorum met %v", what, eff.take != nil, ready)
		}
	}
	if eff.take == nil {
		if w.q.stats != before.stats {
			return fmt.Errorf("%s launched nothing and counted %+v", what, w.q.stats)
		}
		return nil
	}
	if !slices.Equal(eff.take, held) || len(w.q.buf) != 0 || w.q.gen != before.gen+1 {
		return fmt.Errorf("%s took %d of %d buffered and left %d", what, len(eff.take), len(held), len(w.q.buf))
	}
	if e.op == opDeadline && e.n != before.gen {
		return fmt.Errorf("stale %s took the buffer", what)
	}
	cause := before.stats
	switch {
	case e.op == opDeadline:
		cause.DeadlineFlushes++
	case e.op != opSubmit && e.op != opEnd:
	case len(eff.take) >= w.q.batch:
		cause.ThresholdFlushes++ // the threshold wins a tie with the quorum
	default:
		cause.QuorumFlushes++
	}
	cause.Batches++
	cause.Requests += int64(len(eff.take))
	if w.q.stats != cause {
		return fmt.Errorf("%s counted %+v, want %+v", what, w.q.stats, cause)
	}
	if w.timer >= 0 { // Server.do stops it
		w.stale, w.timer = w.timer, -1
	}
	var m uint8
	for _, r := range eff.take {
		m |= 1 << slices.Index(ruleReqs, r)
	}
	w.running = append(w.running, m)
	return nil
}

// check returns the first invariant w breaks.
func (w *ruleWorld) check() error {
	st := w.q.stats
	if st.ThresholdFlushes+st.QuorumFlushes+st.DeadlineFlushes > st.Batches {
		return fmt.Errorf("causes exceed batches: %+v", st)
	}
	if st.Requests+int64(len(w.q.buf)) != w.submitted {
		return fmt.Errorf("%d launched + %d buffered != %d submitted", st.Requests, len(w.q.buf), w.submitted)
	}
	live := w.timer == w.q.gen
	if w.q.deadline && len(w.q.buf) > 0 && !live {
		return fmt.Errorf("%d buffered and no live timer for generation %d", len(w.q.buf), w.q.gen)
	}
	if len(w.running) > 0 || live {
		return nil
	}
	for i, r := range ruleReqs {
		if w.waited&(1<<i) != 0 && slices.Contains(w.q.buf, r) {
			return fmt.Errorf("request %d stranded: waited on, buffered, nothing executing and no live timer", i)
		}
	}
	return nil
}

// next returns every state one environment event leads to from w.
func (w *ruleWorld) next() ([]*ruleWorld, error) {
	var out []*ruleWorld
	step := func(e event, what string, env func(*ruleWorld)) error {
		c := w.clone()
		if env != nil {
			env(c)
		}
		if err := c.apply(e, what); err != nil {
			return fmt.Errorf("%v, after%s", err, c.trace)
		}
		out = append(out, c)
		return nil
	}
	var err error
	// Submit the lowest idle request: idle requests are interchangeable.
	for i := range ruleReqs {
		if w.idle(i) {
			err = step(event{op: opSubmit, req: ruleReqs[i]}, fmt.Sprintf("submit(%d)", i), func(c *ruleWorld) { c.submitted++ })
			break
		}
	}
	for n := 1; err == nil && w.q.slots+n <= ruleSlots; n++ {
		err = step(event{op: opBegin, n: n}, fmt.Sprintf("begin(%d)", n), nil)
	}
	for n := 1; err == nil && n <= w.q.slots+1; n++ { // slots+1 must be refused
		err = step(event{op: opEnd, n: n}, fmt.Sprintf("end(%d)", n), nil)
	}
	for i := 0; err == nil && i < len(ruleReqs); i++ {
		if w.idle(i) || w.waited&(1<<i) != 0 {
			continue
		}
		mark := func(c *ruleWorld) { c.waited |= 1 << i }
		if w.q.deadline { // Wait takes no lock: nothing steps
			c := w.clone()
			mark(c)
			c.trace += fmt.Sprintf(" wait(%d)", i)
			out = append(out, c)
			continue
		}
		err = step(event{op: opWait, req: ruleReqs[i]}, fmt.Sprintf("wait(%d)", i), mark)
	}
	if err == nil {
		err = step(event{op: opPush}, "push", nil)
	}
	if err == nil && w.timer >= 0 {
		err = step(event{op: opDeadline, n: w.timer}, fmt.Sprintf("deadline(gen %d)", w.timer), func(c *ruleWorld) { c.timer = -1 })
	}
	if err == nil && w.stale >= 0 {
		err = step(event{op: opDeadline, n: w.stale}, fmt.Sprintf("stale deadline(gen %d)", w.stale), func(c *ruleWorld) { c.stale = -1 })
	}
	for k := range w.running {
		c := w.clone()
		m := c.running[k]
		c.running = slices.Delete(c.running, k, k+1)
		c.waited &^= m
		c.trace += " completion"
		out = append(out, c)
	}
	return out, err
}

// exploreRule walks every state the launch rule reaches within ruleDepth
// events from an empty queue of the given threshold, breadth first.
// It returns how many states it visited and how many were still unexpanded at
// the depth bound.
func exploreRule(batch int, deadline bool) (states, open int, err error) {
	start := &ruleWorld{q: queue{batch: batch, deadline: deadline}, timer: -1, stale: -1}
	seen := map[string]bool{start.key(): true}
	frontier := []*ruleWorld{start}
	for depth := 0; depth < ruleDepth && len(frontier) > 0; depth++ {
		var next []*ruleWorld
		for _, w := range frontier {
			succ, err := w.next()
			if err != nil {
				return len(seen), len(frontier), err
			}
			for _, c := range succ {
				if err := c.check(); err != nil {
					return len(seen), len(frontier), fmt.Errorf("%v, after%s", err, c.trace)
				}
				if k := c.key(); !seen[k] {
					seen[k] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	return len(seen), len(frontier), nil
}

// TestLaunchRuleExhaustive drives queue.step through every state it reaches
// within ruleDepth events, with four requests and up to ruleSlots open
// slots, at thresholds 1–3, with and without a deadline. The environment
// also completes executing batches and delivers the deadline events of
// stopped timers. Every step and every state is checked: a submit or an end
// launches exactly when n ≥ threshold or n ≥ slots,
// counters agree, the threshold wins a tie, a stale timer never takes, a
// deadline queue's buffer always has a live timer, and no waited-on request
// is stranded.
func TestLaunchRuleExhaustive(t *testing.T) {
	for batch := 1; batch <= 3; batch++ {
		for _, deadline := range []bool{false, true} {
			start := time.Now()
			states, open, err := exploreRule(batch, deadline)
			if err != nil {
				t.Fatalf("batch %d, deadline %v: %v", batch, deadline, err)
			}
			t.Logf("batch %d, deadline %-5v: %6d states (%d unexpanded at depth %d) in %v",
				batch, deadline, states, open, ruleDepth, time.Since(start).Round(time.Millisecond))
		}
	}
}

// TestServerFollowsLaunchRule holds the live Server to the rule: seeded
// random sequences of Submit, BeginSearch/EndSearch, a deadline-less Wait on
// a buffered request, Flush and injected deadline events (current and stale
// generation; FlushDeadline is an hour, so no real timer fires) go to a
// Server over the recording backend and to a bare queue. After every event
// the launched batches, Stats, Pending and, with a deadline, whether a timer
// is armed must be what the rule says. The server is built over an
// EvaluatorBackend of width Workers and then swaps to the recording backend:
// at widths 1 and 2 the quorum is the same n ≥ slots, as no backend's width
// enters the launch rule.
func TestServerFollowsLaunchRule(t *testing.T) {
	for width := 1; width <= 2; width++ {
		for _, deadline := range []time.Duration{0, time.Hour} {
			for seed := uint64(1); seed <= 16; seed++ {
				t.Run(fmt.Sprintf("width=%d/deadline=%v/seed=%d", width, deadline, seed), func(t *testing.T) {
					followRule(t, width, deadline, seed)
				})
			}
		}
	}
}

func followRule(t *testing.T, width int, deadline time.Duration, seed uint64) {
	const events = 80
	r := rng.New(seed)
	batch := 1 + r.Intn(4)
	backend := &recordingBackend{}
	srv := NewServer(&EvaluatorBackend{Workers: width}, ServerConfig{Batch: batch, FlushDeadline: deadline})
	srv.SwapBackend(backend)
	defer srv.Close()
	cl := srv.NewSyncClient()
	rule := queue{batch: batch, deadline: deadline > 0}
	var launched int
	for i := 0; i < events; i++ {
		var e event
		var what string
		waited := (*Request)(nil)
		switch k := r.Intn(7); {
		case k <= 1:
			e = event{op: opSubmit, req: &Request{}}
			what = "Submit"
			cl.Submit(e.req)
		case k == 2:
			e = event{op: opBegin, n: 1 + r.Intn(2)}
			what = fmt.Sprintf("BeginSearch(%d)", e.n)
			cl.BeginSearch(e.n)
		case k == 3:
			e = event{op: opEnd, n: r.Intn(rule.slots + 2)} // slots+1 is refused
			what = fmt.Sprintf("EndSearch(%d) of %d", e.n, rule.slots)
			func() {
				defer func() {
					if panicked := recover() != nil; panicked != (e.n > rule.slots) {
						t.Fatalf("event %d: %s panicked %v", i, what, panicked)
					}
				}()
				cl.EndSearch(e.n)
			}()
		case k == 4 && deadline == 0 && len(rule.buf) > 0:
			e = event{op: opWait, req: rule.buf[r.Intn(len(rule.buf))]}
			what = "Wait"
			cl.Wait(e.req)
			waited = e.req
		case k == 5 && deadline > 0:
			e = event{op: opDeadline, n: rule.gen - r.Intn(2)}
			what = fmt.Sprintf("deadline(gen %d, current %d)", e.n, rule.gen)
			srv.do(e)
		default:
			e = event{op: opPush}
			what = "Flush"
			srv.Flush()
		}
		eff := rule.step(e)
		if eff.take != nil {
			for j, req := range eff.take {
				if req != waited && !delivered(req, 5*time.Second) {
					t.Fatalf("event %d (%s): request %d of the rule's batch was not launched", i, what, j)
				}
				if req.Value != float64(j) {
					t.Fatalf("event %d (%s): request %d of the rule's batch ran at index %v", i, what, j, req.Value)
				}
			}
			launched++
		}
		if _, sizes := backend.snapshot(); len(sizes) != launched || eff.take != nil && sizes[launched-1] != len(eff.take) {
			t.Fatalf("event %d (%s): server launched %v, the rule %d batches (last of %d)", i, what, sizes, launched, len(eff.take))
		}
		if st := srv.Stats(); st != rule.stats || srv.Pending() != len(rule.buf) {
			t.Fatalf("event %d (%s): server %+v with %d pending, rule %+v with %d", i, what, st, srv.Pending(), rule.stats, len(rule.buf))
		}
		if deadline > 0 && srv.timerArmed() != (len(rule.buf) > 0) {
			t.Fatalf("event %d (%s): timer armed %v with %d buffered", i, what, srv.timerArmed(), len(rule.buf))
		}
	}
	cl.EndSearch(rule.slots)
	cl.Close()
}
