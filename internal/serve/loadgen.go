package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
)

// LoadConfig drives RunLoad: N simulated users playing full games against a
// running serve instance over real HTTP.
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Users is the number of concurrent simulated users (required).
	Users int
	// GamesPerUser is how many full games each user plays (default 1).
	// Ignored when Duration is set.
	GamesPerUser int
	// Duration, when positive, makes every user keep starting games until
	// the deadline instead of counting games.
	Duration time.Duration
	// Seed makes users' random move choices reproducible.
	Seed uint64
}

// LoadReport aggregates a load run. Mismatches MUST be zero on a healthy
// server: every response is replayed against a local rules mirror, so a
// mis-routed move, an illegal engine move, or a divergent game outcome is
// detected, not merely counted.
type LoadReport struct {
	Users          int      `json:"users"`
	GamesStarted   int      `json:"games_started"`
	GamesCompleted int      `json:"games_completed"`
	GamesAborted   int      `json:"games_aborted_server_shutdown"`
	Moves          int      `json:"moves"`
	Rejected429    int      `json:"rejected_429_retries"`
	Mismatches     int      `json:"mismatches"`
	ErrorCount     int      `json:"error_count"`
	Errors         []string `json:"errors,omitempty"`
	ElapsedSeconds float64  `json:"elapsed_seconds"`
	MovesPerSec    float64  `json:"moves_per_second"`
	P50MS          float64  `json:"p50_move_latency_ms"`
	P90MS          float64  `json:"p90_move_latency_ms"`
	P99MS          float64  `json:"p99_move_latency_ms"`
	MaxMS          float64  `json:"max_move_latency_ms"`
	MeanReuse      float64  `json:"mean_reuse_fraction_move2plus"`
}

// loadWorker is one simulated user's accounting.
type loadWorker struct {
	client    *http.Client // shared by every user of the run
	latencies []time.Duration
	report    LoadReport
	reuseSum  float64
	reuseN    int
}

// RunLoad plays cfg.Users concurrent users against the server and reports
// latency percentiles, throughput and validation failures. It returns an
// error only for configuration/transport-level failures that prevent the
// run; per-move validation failures are reported in LoadReport.Mismatches
// and .Errors. Users share one HTTP client (30s timeout, idle connections
// sized to Users) and mirror the hosted game through game.NewFromSpec, so
// the caller must have linked the registry (e.g. by importing
// internal/game/games).
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	if cfg.Users < 1 {
		return LoadReport{}, fmt.Errorf("loadgen: Users must be >= 1")
	}
	if cfg.GamesPerUser < 1 {
		cfg.GamesPerUser = 1
	}
	tr := &http.Transport{
		MaxIdleConns:        cfg.Users + 16,
		MaxIdleConnsPerHost: cfg.Users + 16,
	}
	client := &http.Client{Timeout: 30 * time.Second, Transport: tr}

	workers := make([]loadWorker, cfg.Users)
	var wg sync.WaitGroup
	start := time.Now()
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	for u := 0; u < cfg.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			w := &workers[u]
			w.client = client
			r := rng.New(cfg.Seed*0x9E3779B97F4A7C15 + uint64(u) + 1)
			for g := 0; ; g++ {
				if deadline.IsZero() {
					if g >= cfg.GamesPerUser {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				engineStarts := (u+g)%2 == 1
				if !playOneGame(&cfg, w, r, engineStarts) {
					return // server shut down under this user
				}
			}
		}(u)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge.
	var out LoadReport
	out.Users = cfg.Users
	var all []time.Duration
	var reuseSum float64
	var reuseN int
	for i := range workers {
		w := &workers[i]
		out.GamesStarted += w.report.GamesStarted
		out.GamesCompleted += w.report.GamesCompleted
		out.GamesAborted += w.report.GamesAborted
		out.Moves += w.report.Moves
		out.Rejected429 += w.report.Rejected429
		out.Mismatches += w.report.Mismatches
		out.ErrorCount += w.report.ErrorCount
		for _, e := range w.report.Errors {
			if len(out.Errors) < 20 {
				out.Errors = append(out.Errors, e)
			}
		}
		all = append(all, w.latencies...)
		reuseSum += w.reuseSum
		reuseN += w.reuseN
	}
	out.ElapsedSeconds = elapsed.Seconds()
	if elapsed > 0 {
		out.MovesPerSec = float64(out.Moves) / elapsed.Seconds()
	}
	if reuseN > 0 {
		out.MeanReuse = reuseSum / float64(reuseN)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		out.P50MS = ms(percentile(all, 0.50))
		out.P90MS = ms(percentile(all, 0.90))
		out.P99MS = ms(percentile(all, 0.99))
		out.MaxMS = ms(all[len(all)-1])
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// playOneGame runs one full game, validating every response against a local
// rules mirror. Returns false when the server has gone away (drain/shutdown)
// and the user should stop.
func playOneGame(cfg *LoadConfig, w *loadWorker, r *rng.Rand, engineStarts bool) bool {
	var created wireReply
	for attempt := 0; ; attempt++ {
		var status int
		var err error
		created, _, status, err = postJSON(cfg, w, "/v1/game/new", newGameRequest{EngineStarts: engineStarts})
		if err != nil {
			w.report.GamesAborted++
			return false // transport-level: server gone
		}
		if status == http.StatusServiceUnavailable {
			w.report.GamesAborted++
			return false // draining
		}
		if status == http.StatusTooManyRequests {
			// Creation with engine_starts hits admission control too; the
			// retry does not consume the user's game count.
			if attempt >= 100 {
				w.fail("new game: still saturated after %d retries", attempt)
				return true
			}
			w.report.Rejected429++
			time.Sleep(retryDelay(created.retryAfter, r))
			continue
		}
		if status != http.StatusCreated {
			w.fail("new game: unexpected status %d", status)
			return true
		}
		break
	}
	snap := created.Snapshot
	w.report.GamesStarted++

	mirrorGame, err := game.NewFromSpec(snap.Game)
	if err != nil {
		w.fail("new game: cannot mirror spec %q: %v", snap.Game, err)
		return true
	}
	mirror := mirrorGame.NewInitial()
	if !applyEngineMove(w, mirror, &snap) {
		return true
	}

	id := snap.ID
	for moveN := 0; !snap.Terminal; moveN++ {
		if mirror.Terminal() {
			w.mismatch("server says game %s continues at ply %d but mirror is terminal", id, snap.Ply)
			return true
		}
		legal := mirror.LegalMoves(nil)
		action := legal[r.Intn(len(legal))]

		reply, lat, status, err := postJSON(cfg, w, "/v1/game/"+id+"/move", moveRequest{Action: action})
		if err != nil {
			w.report.GamesAborted++
			return false
		}
		switch status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			w.report.Rejected429++
			time.Sleep(retryDelay(reply.retryAfter, r))
			moveN--
			continue
		case http.StatusServiceUnavailable:
			w.report.GamesAborted++
			return false
		case http.StatusGone:
			// Evicted under budget pressure: a legitimate server decision
			// under overload, not a dropped move — the game just ends here.
			w.report.GamesAborted++
			return true
		default:
			w.fail("move %d on %s: unexpected status %d", moveN, id, status)
			return true
		}
		w.latencies = append(w.latencies, lat)
		w.report.Moves++
		if reply.ID != id {
			w.mismatch("response for game %s carries id %s", id, reply.ID)
			return true
		}
		// Replay our move and the engine's reply on the mirror.
		if !mirror.Legal(action) {
			w.mismatch("own action %d no longer legal in mirror of %s", action, id)
			return true
		}
		mirror.Play(action)
		if !applyEngineMove(w, mirror, &reply.Snapshot) {
			return true
		}
		if reply.Stats != nil && moveN >= 1 {
			w.reuseSum += reply.Stats.ReuseFraction
			w.reuseN++
		}
		if !verifySnapshot(w, mirror, &reply.Snapshot) {
			return true
		}
		snap = reply.Snapshot
	}
	if snap.Terminal {
		w.report.GamesCompleted++
	}
	return true
}

// applyEngineMove replays the engine's move (if any) onto the mirror,
// flagging an illegal one as a mismatch.
func applyEngineMove(w *loadWorker, mirror game.State, snap *Snapshot) bool {
	if snap.EngineMove == nil {
		return true
	}
	a := *snap.EngineMove
	if !mirror.Legal(a) {
		w.mismatch("engine move %d illegal in mirror of %s at ply %d", a, snap.ID, snap.Ply)
		return false
	}
	mirror.Play(a)
	return true
}

// verifySnapshot compares the server's view with the local mirror: ply-level
// divergence here means a move was dropped or routed to the wrong session.
func verifySnapshot(w *loadWorker, mirror game.State, snap *Snapshot) bool {
	if snap.Terminal != mirror.Terminal() {
		w.mismatch("game %s: server terminal=%v mirror=%v at ply %d", snap.ID, snap.Terminal, mirror.Terminal(), snap.Ply)
		return false
	}
	if snap.Terminal {
		if game.Player(snap.Winner) != mirror.Winner() {
			w.mismatch("game %s: server winner=%d mirror=%d", snap.ID, snap.Winner, int(mirror.Winner()))
			return false
		}
		return true
	}
	if game.Player(snap.ToMove) != mirror.ToMove() {
		w.mismatch("game %s: server to_move=%d mirror=%d at ply %d", snap.ID, snap.ToMove, int(mirror.ToMove()), snap.Ply)
		return false
	}
	legal := mirror.LegalMoves(nil)
	if len(legal) != len(snap.Legal) {
		w.mismatch("game %s: server legal count=%d mirror=%d at ply %d", snap.ID, len(snap.Legal), len(legal), snap.Ply)
		return false
	}
	seen := make(map[int]bool, len(legal))
	for _, a := range legal {
		seen[a] = true
	}
	for _, a := range snap.Legal {
		if !seen[a] {
			w.mismatch("game %s: server legal move %d not legal in mirror at ply %d", snap.ID, a, snap.Ply)
			return false
		}
	}
	return true
}

func (w *loadWorker) fail(format string, args ...interface{}) {
	w.report.ErrorCount++
	if len(w.report.Errors) < 20 {
		w.report.Errors = append(w.report.Errors, fmt.Sprintf(format, args...))
	}
}

func (w *loadWorker) mismatch(format string, args ...interface{}) {
	w.report.Mismatches++
	w.fail(format, args...)
}

func retryDelay(retryAfter time.Duration, r *rng.Rand) time.Duration {
	if retryAfter <= 0 {
		retryAfter = 100 * time.Millisecond
	}
	if retryAfter > 2*time.Second {
		retryAfter = 2 * time.Second
	}
	// Jitter to decorrelate retry herds.
	return retryAfter/2 + time.Duration(r.Intn(int(retryAfter/2)+1))
}

// wireReply is a Snapshot plus transport metadata the game loop needs.
type wireReply struct {
	Snapshot
	retryAfter time.Duration
}

// postJSON posts body and decodes a Snapshot reply (on 2xx). The returned
// duration is the full request round-trip. A non-nil error means the server
// is unreachable (shutdown/drain at the TCP level).
func postJSON(cfg *LoadConfig, w *loadWorker, path string, body interface{}) (wireReply, time.Duration, int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return wireReply{}, 0, 0, err
	}
	start := time.Now()
	resp, err := w.client.Post(cfg.BaseURL+path, "application/json", bytes.NewReader(buf))
	lat := time.Since(start)
	if err != nil {
		return wireReply{}, lat, 0, err
	}
	defer resp.Body.Close()
	var out wireReply
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			out.retryAfter = time.Duration(secs) * time.Second
		}
	}
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out.Snapshot); err != nil {
			w.fail("%s: bad response body: %v", path, err)
		}
	}
	return out, lat, resp.StatusCode, nil
}
