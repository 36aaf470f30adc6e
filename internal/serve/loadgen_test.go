package serve

// The load client: simulated users play full games over real HTTP, and every
// reply is replayed on a local rules mirror, so a mis-routed, dropped or
// illegal move is a mismatch, not a statistic. The e2e tests run it against
// an httptest server; TestLoadAgainstTarget runs it against a live one:
//
//	go test -c -race -o serve.test ./internal/serve
//	./serve.test -test.run '^TestLoadAgainstTarget$' -test.v \
//	    -serve.target http://127.0.0.1:8080 -serve.users 64 -serve.duration 15s

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
)

var (
	loadTarget   = flag.String("serve.target", "", "base URL of a running server; TestLoadAgainstTarget skips when empty")
	loadUsers    = flag.Int("serve.users", 64, "concurrent users of TestLoadAgainstTarget")
	loadDuration = flag.Duration("serve.duration", 15*time.Second, "how long TestLoadAgainstTarget's users keep starting games")
)

// TestLoadAgainstTarget drives the server at -serve.target until
// -serve.duration has passed or the server has gone (a drain ends the run,
// it does not fail it). It fails on any mismatch or protocol error, and when
// no game completed.
func TestLoadAgainstTarget(t *testing.T) {
	if *loadTarget == "" {
		t.Skip("no -serve.target")
	}
	rep := runLoad(loadConfig{url: *loadTarget, users: *loadUsers, duration: *loadDuration, seed: 1})
	t.Logf("users=%d games completed=%d aborted=%d moves=%d p99=%.2fms mean reuse(move2+)=%.3f",
		*loadUsers, rep.GamesCompleted, rep.GamesAborted, rep.Moves, rep.P99MS, rep.MeanReuse)
	if err := rep.verdict(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadVerdictFailsWhenNothingServed: a server that answers 503 to every
// request completes no game, and that is a failed run, not a clean drain.
func TestLoadVerdictFailsWhenNothingServed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	rep := runLoad(loadConfig{url: ts.URL, users: 4, games: 1, seed: 1})
	if rep.GamesAborted != 4 || rep.GamesCompleted != 0 {
		t.Fatalf("aborted=%d completed=%d, want every user aborted", rep.GamesAborted, rep.GamesCompleted)
	}
	if rep.verdict() == nil {
		t.Fatalf("verdict passed a run that completed no game")
	}
}

// TestRetryDelayHonoursRetryAfter: a client backs off at least as long as
// the server's Retry-After hint asks, and jitters only above it.
func TestRetryDelayHonoursRetryAfter(t *testing.T) {
	for _, ra := range []time.Duration{time.Second, 3 * time.Second} {
		for seed := uint64(0); seed < 1000; seed++ {
			if d := retryDelay(ra, rng.New(seed)); d < ra || d > ra*3/2 {
				t.Fatalf("Retry-After %v, seed %d: delay %v, want in [%v, %v]", ra, seed, d, ra, ra*3/2)
			}
		}
	}
}

// loadConfig drives runLoad.
type loadConfig struct {
	url      string
	users    int
	games    int           // full games per user, when duration is zero
	duration time.Duration // when positive, users start games until it has passed
	seed     uint64
}

// loadReport aggregates a run. A healthy server shows no mismatch and no
// error.
type loadReport struct {
	GamesCompleted int
	GamesAborted   int // the server went away (503, no connection) or evicted the game (410)
	Moves          int
	Mismatches     int
	ErrorCount     int // protocol errors, mismatches included
	Errors         []string
	P99MS          float64 // move round trip, last attempt only
	MeanReuse      float64 // mean reuse fraction of the engine's second and later searches

	lats     []time.Duration
	reuseSum float64
	reuseN   int
}

// verdict fails a run that saw a mismatch or a protocol error, or that
// completed no game.
func (r *loadReport) verdict() error {
	switch {
	case r.ErrorCount > 0:
		return fmt.Errorf("%d mismatches, %d errors: %v", r.Mismatches, r.ErrorCount, r.Errors)
	case r.GamesCompleted == 0:
		return errors.New("no game completed")
	}
	return nil
}

// loadUser is one simulated user; only its own goroutine touches it.
type loadUser struct {
	url    string
	client *http.Client
	r      *rng.Rand
	rep    loadReport
}

// runLoad plays cfg.users concurrent users against the server. The mirror
// is built through game.NewFromSpec, so the registry must be linked (this
// package's tests import internal/game/games).
func runLoad(cfg loadConfig) loadReport {
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: cfg.users}}
	deadline := time.Now().Add(cfg.duration)
	users := make([]loadUser, cfg.users)
	var wg sync.WaitGroup
	for i := range users {
		u := &users[i]
		*u = loadUser{url: cfg.url, client: client, r: rng.New(cfg.seed*0x9E3779B97F4A7C15 + uint64(i) + 1)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; ; g++ {
				done := g >= cfg.games
				if cfg.duration > 0 {
					done = time.Now().After(deadline)
				}
				if done {
					return
				}
				if !u.play((i+g)%2 == 1) {
					return // the server has gone
				}
			}
		}()
	}
	wg.Wait()

	var out loadReport
	for i := range users {
		r := &users[i].rep
		out.GamesCompleted += r.GamesCompleted
		out.GamesAborted += r.GamesAborted
		out.Moves += r.Moves
		out.Mismatches += r.Mismatches
		out.ErrorCount += r.ErrorCount
		out.Errors = append(out.Errors, r.Errors...)
		out.lats = append(out.lats, r.lats...)
		out.reuseSum += r.reuseSum
		out.reuseN += r.reuseN
	}
	out.Errors = out.Errors[:min(len(out.Errors), 20)]
	if out.reuseN > 0 {
		out.MeanReuse = out.reuseSum / float64(out.reuseN)
	}
	if n := len(out.lats); n > 0 {
		slices.Sort(out.lats)
		i := min(max(int(0.99*float64(n)+0.5)-1, 0), n-1)
		out.P99MS = float64(out.lats[i].Microseconds()) / 1000
	}
	return out
}

// play runs one full game. It returns false when the server has gone and
// the user should stop.
func (u *loadUser) play(engineStarts bool) bool {
	snap, status, _, err := u.post("/v1/game/new", newGameRequest{EngineStarts: engineStarts})
	if err != nil || status == http.StatusServiceUnavailable {
		u.rep.GamesAborted++
		return false
	}
	if status != http.StatusCreated {
		u.fail("new game: unexpected status %d", status)
		return true
	}
	g, err := game.NewFromSpec(snap.Game)
	if err != nil {
		u.fail("new game: cannot mirror spec %q: %v", snap.Game, err)
		return true
	}
	mirror, id := g.NewInitial(), snap.ID
	for moveN := 0; ; moveN++ {
		if !u.check(mirror, &snap) {
			return true
		}
		if snap.Terminal {
			u.rep.GamesCompleted++
			return true
		}
		legal := mirror.LegalMoves(nil)
		action := legal[u.r.Intn(len(legal))]
		var lat time.Duration
		snap, status, lat, err = u.post("/v1/game/"+id+"/move", move(action))
		switch {
		case err != nil || status == http.StatusServiceUnavailable:
			u.rep.GamesAborted++
			return false
		case status == http.StatusGone:
			// Evicted under budget pressure: a legitimate server decision
			// under overload, not a dropped move. The game just ends here.
			u.rep.GamesAborted++
			return true
		case status != http.StatusOK:
			u.fail("move %d on %s: unexpected status %d", moveN, id, status)
			return true
		}
		u.rep.lats = append(u.rep.lats, lat)
		u.rep.Moves++
		if snap.ID != id {
			u.mismatch("response for game %s carries id %s", id, snap.ID)
			return true
		}
		mirror.Play(action)
		if snap.Stats != nil && moveN >= 1 {
			u.rep.reuseSum += snap.Stats.ReuseFraction
			u.rep.reuseN++
		}
	}
}

// check replays the engine's move, if any, on the mirror and compares the
// server's view with it: a divergence means a move was dropped or routed to
// the wrong session.
func (u *loadUser) check(mirror game.State, snap *Snapshot) bool {
	if a := snap.EngineMove; a != nil {
		if !mirror.Legal(*a) {
			u.mismatch("engine move %d illegal in mirror of %s at ply %d", *a, snap.ID, snap.Ply)
			return false
		}
		mirror.Play(*a)
	}
	if snap.Terminal != mirror.Terminal() {
		u.mismatch("game %s: server terminal=%v mirror=%v at ply %d", snap.ID, snap.Terminal, mirror.Terminal(), snap.Ply)
		return false
	}
	if snap.Terminal {
		if game.Player(snap.Winner) != mirror.Winner() {
			u.mismatch("game %s: server winner=%d mirror=%d", snap.ID, snap.Winner, int(mirror.Winner()))
			return false
		}
		return true
	}
	if game.Player(snap.ToMove) != mirror.ToMove() {
		u.mismatch("game %s: server to_move=%d mirror=%d at ply %d", snap.ID, snap.ToMove, int(mirror.ToMove()), snap.Ply)
		return false
	}
	legal := mirror.LegalMoves(nil)
	slices.Sort(legal)
	if !slices.Equal(legal, slices.Sorted(slices.Values(snap.Legal))) {
		u.mismatch("game %s: server legal=%v mirror=%v at ply %d", snap.ID, snap.Legal, legal, snap.Ply)
		return false
	}
	return true
}

func (u *loadUser) fail(format string, args ...any) {
	u.rep.ErrorCount++
	if len(u.rep.Errors) < 20 {
		u.rep.Errors = append(u.rep.Errors, fmt.Sprintf(format, args...))
	}
}

func (u *loadUser) mismatch(format string, args ...any) {
	u.rep.Mismatches++
	u.fail(format, args...)
}

// maxRetries caps the 429 retries of one request, creation or move alike.
const maxRetries = 100

// retryDelay is the backoff after a 429: at least the server's Retry-After
// hint (100 ms when it sent none), plus up to half that again of jitter to
// decorrelate retry herds.
func retryDelay(retryAfter time.Duration, r *rng.Rand) time.Duration {
	if retryAfter <= 0 {
		retryAfter = 100 * time.Millisecond
	}
	return retryAfter + time.Duration(r.Intn(int(retryAfter/2)+1))
}

// post sends body to path and decodes a 2xx reply. A 429 is retried after
// retryDelay, up to maxRetries times; the duration is the last attempt's
// round trip. A non-nil error means the server is unreachable.
func (u *loadUser) post(path string, body any) (Snapshot, int, time.Duration, error) {
	buf, _ := json.Marshal(body) // the request types always marshal
	for retry := 0; ; retry++ {
		start := time.Now()
		resp, err := u.client.Post(u.url+path, "application/json", bytes.NewReader(buf))
		lat := time.Since(start)
		if err != nil {
			return Snapshot{}, 0, lat, err
		}
		var snap Snapshot
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && retry < maxRetries:
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")) // absent or malformed: 0, the default wait
			resp.Body.Close()
			time.Sleep(retryDelay(time.Duration(secs)*time.Second, u.r))
			continue
		case resp.StatusCode < 300:
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				u.fail("%s: bad response body: %v", path, err)
			}
		}
		resp.Body.Close()
		return snap, resp.StatusCode, lat, nil
	}
}
