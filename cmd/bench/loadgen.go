package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/serve"
)

// The load generator is a closed loop: each user owns one keep-alive
// connection and sends its next request only after the previous reply has
// been read and checked, because a player cannot move before the engine has
// answered. It differs from serve.RunLoad in what it keeps: every request's
// round trip with its completion time (so warm-up can be cut off by
// operation count and windows by the clock) and the reply's search stats.

const (
	opNew  = uint8(0)
	opMove = uint8(1)
)

// rec is one completed HTTP request.
type rec struct {
	end      int64 // completion, ns on the run's clock
	rt       int64 // round trip, ns
	searchUS int32 // reply stats.duration_ms in µs (engine replies only)
	playouts int32
	evals    int32
	reused   int32
	trans    int32
	op       uint8
	engine   bool // reply carried engine_move
	failed   bool // non-2xx, transport error or mirror mismatch
}

// load drives the users of one service.
type load struct {
	base   string
	game   game.Game
	spec   string
	warmup int64

	ops      atomic.Int64
	warmDone chan struct{}
	stop     chan struct{}
	wg       sync.WaitGroup
	users    []*user

	errMu sync.Mutex
	errs  []string
}

type user struct {
	l      *load
	idx    int
	r      *rng.Rand
	client *http.Client
	recs   []rec
	legal  []int
}

// startLoad launches n users against base. The seed decides every user
// move; user u's g-th game has the engine start when u+g is odd.
func startLoad(base string, g game.Game, spec string, n int, seed uint64, warmup int) *load {
	l := &load{
		base: base, game: g, spec: spec, warmup: int64(warmup),
		warmDone: make(chan struct{}), stop: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		u := &user{
			l: l, idx: i,
			r: rng.New(seed*0x9E3779B97F4A7C15 + uint64(i) + 1),
			client: &http.Client{
				Timeout:   60 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			},
		}
		l.users = append(l.users, u)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for g := 0; !u.stopped(); g++ {
				u.playGame((u.idx+g)%2 == 1)
			}
			u.client.CloseIdleConnections()
		}()
	}
	return l
}

// finish stops the users after their request in flight and returns every
// record, unordered, and the bytes the records occupy.
func (l *load) finish() ([]rec, int) {
	close(l.stop)
	l.wg.Wait()
	n, held := 0, 0
	for _, u := range l.users {
		n += len(u.recs)
		held += cap(u.recs)
	}
	all := make([]rec, 0, n)
	for _, u := range l.users {
		all = append(all, u.recs...)
	}
	return all, (held + n) * int(unsafe.Sizeof(rec{}))
}

func (l *load) errorf(format string, args ...any) {
	l.errMu.Lock()
	if len(l.errs) < 20 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
	l.errMu.Unlock()
}

func (u *user) stopped() bool {
	select {
	case <-u.l.stop:
		return true
	default:
		return false
	}
}

// playGame plays one game to its end, the first failure, or stop.
func (u *user) playGame(engineStarts bool) {
	body := []byte(`{"engine_starts":false}`)
	if engineStarts {
		body = []byte(`{"engine_starts":true}`)
	}
	snap, ok := u.do(opNew, "/v1/game/new", body, http.StatusCreated)
	if !ok {
		return
	}
	mirror := u.l.game.NewInitial()
	ply := 0
	side := game.P2
	if engineStarts {
		side = game.P1
	}
	if snap.ID == "" || snap.Game != u.l.spec || game.Player(snap.EngineSide) != side {
		u.mismatch("new game: id %q game %q engine_side %d", snap.ID, snap.Game, snap.EngineSide)
		return
	}
	if !u.check(mirror, &ply, snap, engineStarts) {
		return
	}
	path := "/v1/game/" + snap.ID + "/move"
	for !snap.Terminal && !u.stopped() {
		u.legal = mirror.LegalMoves(u.legal[:0])
		action := u.legal[u.r.Intn(len(u.legal))]
		mirror.Play(action)
		ply++
		reply, ok := u.do(opMove, path, []byte(fmt.Sprintf(`{"action":%d}`, action)), http.StatusOK)
		if !ok {
			return
		}
		if reply.ID != snap.ID {
			u.mismatch("reply for game %s carries id %s", snap.ID, reply.ID)
			return
		}
		if !u.check(mirror, &ply, reply, !mirror.Terminal()) {
			return
		}
		snap = reply
	}
}

// check replays the engine's move on the mirror and compares the reply with
// it: a legal engine move exactly when one is due, matching stats, ply,
// side to move, legal set, terminal flag and winner.
func (u *user) check(mirror game.State, ply *int, snap *serve.Snapshot, engineDue bool) bool {
	if (snap.EngineMove != nil) != engineDue {
		return u.mismatch("game %s ply %d: engine move present=%v, due=%v", snap.ID, snap.Ply, snap.EngineMove != nil, engineDue)
	}
	if engineDue {
		a := *snap.EngineMove
		if snap.Stats == nil || snap.Stats.Action != a {
			return u.mismatch("game %s: engine move %d without matching stats", snap.ID, a)
		}
		if a < 0 || a >= mirror.NumActions() || !mirror.Legal(a) {
			return u.mismatch("game %s ply %d: illegal engine move %d", snap.ID, snap.Ply, a)
		}
		mirror.Play(a)
		*ply++
	}
	if snap.Ply != *ply {
		return u.mismatch("game %s: server ply %d, mirror %d", snap.ID, snap.Ply, *ply)
	}
	if snap.Terminal != mirror.Terminal() {
		return u.mismatch("game %s ply %d: server terminal=%v, mirror %v", snap.ID, snap.Ply, snap.Terminal, mirror.Terminal())
	}
	if snap.Terminal {
		if game.Player(snap.Winner) != mirror.Winner() {
			return u.mismatch("game %s: server winner %d, mirror %d", snap.ID, snap.Winner, mirror.Winner())
		}
		return true
	}
	if game.Player(snap.ToMove) != mirror.ToMove() {
		return u.mismatch("game %s ply %d: server to_move %d, mirror %d", snap.ID, snap.Ply, snap.ToMove, mirror.ToMove())
	}
	u.legal = mirror.LegalMoves(u.legal[:0])
	if len(snap.Legal) != len(u.legal) {
		return u.mismatch("game %s ply %d: server lists %d legal moves, mirror %d", snap.ID, snap.Ply, len(snap.Legal), len(u.legal))
	}
	for _, a := range snap.Legal {
		if a < 0 || a >= mirror.NumActions() || !mirror.Legal(a) {
			return u.mismatch("game %s ply %d: server legal move %d is illegal in the mirror", snap.ID, snap.Ply, a)
		}
	}
	return true
}

// mismatch turns the request just recorded into a failure.
func (u *user) mismatch(format string, args ...any) bool {
	u.recs[len(u.recs)-1].failed = true
	u.l.errorf(format, args...)
	return false
}

// do sends one request and records it. ok is false when the reply cannot be
// played on: a transport error, an unexpected status or an undecodable body.
func (u *user) do(op uint8, path string, body []byte, want int) (*serve.Snapshot, bool) {
	start := time.Now()
	resp, err := u.client.Post(u.l.base+path, "application/json", bytes.NewReader(body))
	var snap serve.Snapshot
	var status int
	if err == nil {
		status = resp.StatusCode
		var raw []byte
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && status == want {
			err = json.Unmarshal(raw, &snap)
		}
	}
	end := time.Now()
	r := rec{end: at(end), rt: int64(end.Sub(start)), op: op}
	switch {
	case err != nil:
		r.failed = true
		if !u.stopped() {
			u.l.errorf("%s: %v", path, err)
		}
	case status != want:
		r.failed = true
		u.l.errorf("%s: status %d, want %d", path, status, want)
	case snap.Stats != nil:
		r.engine = snap.EngineMove != nil
		r.searchUS = int32(snap.Stats.DurationMS * 1000)
		r.playouts = int32(snap.Stats.Playouts)
		r.evals = int32(snap.Stats.Evaluations)
		r.reused = int32(snap.Stats.ReusedVisits)
		r.trans = int32(snap.Stats.TransHits)
	}
	u.recs = append(u.recs, r)
	if u.l.ops.Add(1) == u.l.warmup {
		close(u.l.warmDone)
	}
	return &snap, !r.failed
}
