package evaluate

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/rng"
)

// ruleWorld is one state of the launch rule's checker: the queue, plus the
// clients around it that the rule cannot see — the batches executing and who
// owns each request. A request is owned by a registered slot (one of
// q.slots, which only waits on it) or by a caller that holds no slot (an
// Evaluate or a Wait, which pushes when it waits).
type ruleWorld struct {
	q         queue
	running   []uint8 // executing batches, as request bitmasks
	slotReqs  uint8   // requests a registered slot owns
	waited    uint8   // slotless callers' requests that have been waited on
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
// which step never reads and apply checks on every step.
func (w *ruleWorld) key() string {
	var b strings.Builder
	for _, r := range w.q.buf {
		fmt.Fprint(&b, slices.Index(ruleReqs, r))
	}
	running := slices.Clone(w.running)
	slices.Sort(running)
	fmt.Fprint(&b, "|", w.q.slots, running, w.slotReqs, w.waited)
	return b.String()
}

// buffered is the mask of the buffered requests.
func (w *ruleWorld) buffered() uint8 {
	var m uint8
	for _, r := range w.q.buf {
		m |= 1 << slices.Index(ruleReqs, r)
	}
	return m
}

// outstanding is the mask of the requests buffered or executing.
func (w *ruleWorld) outstanding() uint8 {
	m := w.buffered()
	for _, r := range w.running {
		m |= r
	}
	return m
}

// free is how many registered slots own no request: they are in tree code,
// and will submit or give their slot back.
func (w *ruleWorld) free() int { return w.q.slots - bits.OnesCount8(w.slotReqs) }

// apply steps the rule on e and applies its effect as Server.do does: a take
// starts executing. It checks what a single step promises and returns the
// first violation.
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
	if !slices.Equal(eff.take, held) || len(w.q.buf) != 0 {
		return fmt.Errorf("%s took %d of %d buffered and left %d", what, len(eff.take), len(held), len(w.q.buf))
	}
	cause := before.stats
	switch {
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
	var m uint8
	for _, r := range eff.take {
		m |= 1 << slices.Index(ruleReqs, r)
	}
	w.running = append(w.running, m)
	return nil
}

// check returns the first invariant w breaks. Liveness is the last: some
// client can still act — a slot in tree code, or a slotless caller that has
// not yet waited — or a batch is executing, or the buffer is empty. With no
// clock in the rule nothing else would launch a buffered request.
func (w *ruleWorld) check() error {
	st := w.q.stats
	if st.ThresholdFlushes+st.QuorumFlushes > st.Batches {
		return fmt.Errorf("causes exceed batches: %+v", st)
	}
	if st.Requests+int64(len(w.q.buf)) != w.submitted {
		return fmt.Errorf("%d launched + %d buffered != %d submitted", st.Requests, len(w.q.buf), w.submitted)
	}
	if w.free() < 0 {
		return fmt.Errorf("%d slots own %08b", w.q.slots, w.slotReqs)
	}
	if m := w.waited & w.buffered(); m != 0 {
		return fmt.Errorf("requests %08b stay buffered after their slotless caller waited", m)
	}
	slotless := w.outstanding() &^ w.slotReqs
	if len(w.q.buf) > 0 && len(w.running) == 0 && w.free() == 0 && slotless&^w.waited == 0 {
		return fmt.Errorf("every client is blocked with %d buffered and nothing executing", len(w.q.buf))
	}
	return nil
}

// next returns every state one client or environment event leads to from w.
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
	// A free slot or a new slotless caller submits the lowest idle request:
	// idle requests are interchangeable.
	if idle := bits.TrailingZeros8(^w.outstanding()); idle < len(ruleReqs) {
		req := event{op: opSubmit, req: ruleReqs[idle]}
		if w.free() > 0 {
			err = step(req, fmt.Sprintf("slot submit(%d)", idle), func(c *ruleWorld) { c.submitted++; c.slotReqs |= 1 << idle })
		}
		if err == nil {
			err = step(req, fmt.Sprintf("submit(%d)", idle), func(c *ruleWorld) { c.submitted++ })
		}
	}
	for n := 1; err == nil && w.q.slots+n <= ruleSlots; n++ {
		err = step(event{op: opBegin, n: n}, fmt.Sprintf("begin(%d)", n), nil)
	}
	for n := 1; err == nil && n <= w.free(); n++ {
		err = step(event{op: opEnd, n: n}, fmt.Sprintf("end(%d)", n), nil)
	}
	if err == nil { // more slots than are open: refused, and the state stays
		err = step(event{op: opEnd, n: w.q.slots + 1}, fmt.Sprintf("end(%d)", w.q.slots+1), nil)
	}
	// A slotless caller waits, and so pushes; a slot's wait steps nothing.
	for i := 0; err == nil && i < len(ruleReqs); i++ {
		if bit := uint8(1) << i; (w.outstanding()&^w.slotReqs&^w.waited)&bit != 0 {
			err = step(event{op: opWait, req: ruleReqs[i]}, fmt.Sprintf("wait(%d)", i), func(c *ruleWorld) { c.waited |= bit })
		}
	}
	if err == nil {
		err = step(event{op: opPush}, "push", nil)
	}
	for k := range w.running {
		c := w.clone()
		m := c.running[k]
		c.running = slices.Delete(c.running, k, k+1)
		c.slotReqs &^= m
		c.waited &^= m
		c.trace += " completion"
		out = append(out, c)
	}
	return out, err
}

// exploreRule walks every state the launch rule and its clients reach within
// ruleDepth events from an empty queue of the given threshold, breadth
// first. It returns how many states it visited and how many were still
// unexpanded at the depth bound.
func exploreRule(batch int) (states, open int, err error) {
	start := &ruleWorld{q: queue{batch: batch}}
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
// slots, at thresholds 1–3, together with the clients that Client's contract
// allows: registered slots that submit, block on their request and give back
// a slot only while it owns none, and slotless callers that submit and then
// wait, which pushes. The environment also pushes (Flush, Close) and
// completes executing batches. Every step and every state is checked: a
// submit or an end launches exactly when n ≥ threshold or n ≥ slots,
// counters agree, the threshold wins a tie, a waited-on slotless request is
// never left buffered, and no state has every client blocked on a buffered
// request with nothing executing.
func TestLaunchRuleExhaustive(t *testing.T) {
	for batch := 1; batch <= 3; batch++ {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			start := time.Now()
			states, open, err := exploreRule(batch)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%6d states (%d unexpanded at depth %d) in %v",
				states, open, ruleDepth, time.Since(start).Round(time.Millisecond))
		})
	}
}

// TestServerFollowsLaunchRule holds the live Server to the rule: seeded
// random sequences of Submit, BeginSearch/EndSearch, Wait on a buffered
// request by a client that holds no slots, and Flush go to a Server over the
// recording backend and to a bare queue. After every event the launched
// batches, Stats and Pending must be what the rule says. With one client it
// holds every slot and waits only while it holds none; with two, a second
// client that never registers also submits, and waits on its own buffered
// requests whatever slots the first holds, so its push is per client, not
// per server. The server is built over an EvaluatorBackend of width Workers
// and then swaps to the recording backend: at widths 1 and 2 the quorum is
// the same n ≥ slots, as no backend's width enters the launch rule.
func TestServerFollowsLaunchRule(t *testing.T) {
	for width := 1; width <= 2; width++ {
		for clients := 1; clients <= 2; clients++ {
			for seed := uint64(1); seed <= 16; seed++ {
				t.Run(fmt.Sprintf("width=%d/clients=%d/seed=%d", width, clients, seed), func(t *testing.T) {
					followRule(t, width, clients, seed)
				})
			}
		}
	}
}

func followRule(t *testing.T, width, clients int, seed uint64) {
	const events = 80
	r := rng.New(seed)
	batch := 1 + r.Intn(4)
	backend := &recordingBackend{}
	srv := NewServer(&EvaluatorBackend{Workers: width}, ServerConfig{Batch: batch})
	srv.SwapBackend(backend)
	defer srv.Close()
	cl := srv.NewSyncClient()       // holds every slot
	slotless := srv.NewSyncClient() // submits only with two clients
	owner := map[*Request]*Client{}
	rule := queue{batch: batch}
	var launched int
	for i := 0; i < events; i++ {
		var e event
		var what string
		waited := (*Request)(nil)
		// The buffered requests a Wait may name: any while no slot is open,
		// else the slotless client's own.
		var waitable []*Request
		for _, req := range rule.buf {
			if rule.slots == 0 || owner[req] == slotless {
				waitable = append(waitable, req)
			}
		}
		switch k := r.Intn(6); {
		case k <= 1:
			e = event{op: opSubmit, req: &Request{}}
			what = "Submit"
			owner[e.req] = cl
			if clients == 2 && r.Intn(2) == 1 {
				owner[e.req] = slotless
				what = "slotless Submit"
			}
			owner[e.req].Submit(e.req)
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
		case k == 4 && len(waitable) > 0:
			e = event{op: opWait, req: waitable[r.Intn(len(waitable))]}
			what = fmt.Sprintf("Wait with %d slots open", rule.slots)
			got := make(chan struct{})
			go func() { owner[e.req].Wait(e.req); close(got) }()
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatalf("event %d: %s never returned", i, what)
			}
			waited = e.req
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
	}
	cl.EndSearch(rule.slots)
	cl.Close()
	slotless.Close()
}
