package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
)

// testConfig is a tictactoe serving config with a random evaluator (no
// network needed — the NewEvaluator seam replaces inference).
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Game:     games.MustNew("tictactoe"),
		GameSpec: "tictactoe",
		Search:   mcts.Config{Playouts: 96, ReuseTree: true, Seed: 7},
		IdleTTL:  -1, // tests drive eviction explicitly
		NewEvaluator: func(version int64, _ *nn.Network) evaluate.Evaluator {
			return &evaluate.Random{}
		},
	}
}

func startServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func post(t *testing.T, url string, body interface{}) (*http.Response, Snapshot) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp, snap
}

// move is the body of a move request that plays action.
func move(action int) moveRequest { return moveRequest{Action: &action} }

// postStatus is the goroutine-safe variant of post: no testing.T calls,
// just the status code (-1 on transport failure).
func postStatus(url string, body interface{}) int {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return -1
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestE2EConcurrentGamesOverHTTP plays two concurrent full tictactoe games
// through the real HTTP stack using the load client's rules-mirror
// validation, and checks that persistent sessions actually reuse their
// search trees from the second engine move on.
func TestE2EConcurrentGamesOverHTTP(t *testing.T) {
	_, ts := startServer(t, testConfig(t))

	rep := runLoad(loadConfig{url: ts.URL, users: 2, games: 2, seed: 11})
	if rep.Mismatches != 0 || rep.ErrorCount != 0 {
		t.Fatalf("load run reported %d mismatches, %d errors: %v", rep.Mismatches, rep.ErrorCount, rep.Errors)
	}
	if rep.GamesCompleted != 4 {
		t.Fatalf("GamesCompleted = %d, want 4 (aborted=%d)", rep.GamesCompleted, rep.GamesAborted)
	}
	if rep.Moves == 0 {
		t.Fatalf("no moves recorded")
	}
	// Session reuse: the engine's second and later searches must run warm.
	if rep.MeanReuse <= 0 {
		t.Fatalf("mean reuse fraction on move 2+ = %v, want > 0 (persistent sessions not reusing trees)", rep.MeanReuse)
	}
}

// TestE2EEvictionUnderBudget pins the LRU budget contract: with a
// one-session budget, creating a second game evicts the first, which then
// answers 410 Gone on both the move and the poll endpoint, while an
// unknown id stays 404.
func TestE2EEvictionUnderBudget(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxSessions = 1
	svc, ts := startServer(t, cfg)

	respA, snapA := post(t, ts.URL+"/v1/game/new", newGameRequest{})
	if respA.StatusCode != http.StatusCreated {
		t.Fatalf("game A: status %d", respA.StatusCode)
	}
	respB, _ := post(t, ts.URL+"/v1/game/new", newGameRequest{})
	if respB.StatusCode != http.StatusCreated {
		t.Fatalf("game B: status %d", respB.StatusCode)
	}

	resp, _ := post(t, ts.URL+"/v1/game/"+snapA.ID+"/move", move(0))
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("move on evicted game A: status %d, want 410", resp.StatusCode)
	}
	get, err := http.Get(ts.URL + "/v1/game/" + snapA.ID)
	if err != nil {
		t.Fatalf("GET evicted game: %v", err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusGone {
		t.Fatalf("GET evicted game A: status %d, want 410", get.StatusCode)
	}
	get, err = http.Get(ts.URL + "/v1/game/ffffffffffff")
	if err != nil {
		t.Fatalf("GET unknown game: %v", err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown game: status %d, want 404", get.StatusCode)
	}
	if n := svc.Stats().SessionsEvicted; n != 1 {
		t.Fatalf("SessionsEvicted = %d, want 1", n)
	}
}

// gateEval blocks every evaluation until the gate closes, then passes
// through to a free random evaluator.
type gateEval struct {
	gate  chan struct{}
	inner evaluate.Random
}

func (g *gateEval) Evaluate(input, policy []float32) float64 {
	<-g.gate
	return g.inner.Evaluate(input, policy)
}

// TestE2ESaturation429 forces admission-control rejection: with a
// one-concurrent-move bound and a gated evaluator, a move in flight makes
// the next move answer 429 with a Retry-After hint; after the gate opens
// the blocked move completes normally.
func TestE2ESaturation429(t *testing.T) {
	gate := make(chan struct{})
	cfg := testConfig(t)
	cfg.MaxConcurrentMoves = 1
	cfg.NewEvaluator = func(int64, *nn.Network) evaluate.Evaluator {
		return &gateEval{gate: gate}
	}
	svc, ts := startServer(t, cfg)

	_, snapA := post(t, ts.URL+"/v1/game/new", newGameRequest{})
	_, snapB := post(t, ts.URL+"/v1/game/new", newGameRequest{})

	moveDone := make(chan int, 1)
	go func() {
		moveDone <- postStatus(ts.URL+"/v1/game/"+snapA.ID+"/move", move(0))
	}()

	// Wait until A's move holds the admission token (blocked in search).
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().MovesInFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("move on A never entered flight")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := post(t, ts.URL+"/v1/game/"+snapB.ID+"/move", move(0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("move on B while saturated: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}

	close(gate)
	if code := <-moveDone; code != http.StatusOK {
		t.Fatalf("blocked move on A finished with status %d, want 200", code)
	}
	if n := svc.Stats().MovesRejected; n != 1 {
		t.Fatalf("MovesRejected = %d, want 1", n)
	}
}

// TestE2EDrainSafeEviction is the pool-layer half of the drain-safe
// eviction fix: sessions evicted under budget pressure while their move is
// in flight must let the search finish coherently (the HTTP response is a
// normal 200), and only then tear the tree down. Run under -race in CI.
func TestE2EDrainSafeEviction(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxSessions = 1
	cfg.Search.Playouts = 256
	cfg.NewEvaluator = func(int64, *nn.Network) evaluate.Evaluator {
		return &evaluate.Random{Latency: 50 * time.Microsecond}
	}
	svc, ts := startServer(t, cfg)

	_, snapA := post(t, ts.URL+"/v1/game/new", newGameRequest{})

	var wg sync.WaitGroup
	moveStatus := make(chan int, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		moveStatus <- postStatus(ts.URL+"/v1/game/"+snapA.ID+"/move", move(4))
	}()
	go func() {
		defer wg.Done()
		// Evict A (likely mid-search) by blowing the one-session budget.
		for i := 0; i < 4; i++ {
			postStatus(ts.URL+"/v1/game/new", newGameRequest{})
		}
	}()
	wg.Wait()

	// The in-flight move either completed before the eviction unlinked the
	// session (200) or found it closed (410) — never a torn state.
	if code := <-moveStatus; code != http.StatusOK && code != http.StatusGone {
		t.Fatalf("move racing eviction: status %d, want 200 or 410", code)
	}
	// Once everything settles, A must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/game/" + snapA.ID)
		if err != nil {
			t.Fatalf("GET after eviction: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("game A still answering %d after eviction", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
	if svc.Stats().SessionsEvicted == 0 {
		t.Fatalf("no eviction recorded")
	}
}

// TestE2EModelVersionIsServingVersion: a service serves one model version
// for its lifetime. Its evaluator is built once, for Config.InitialVersion,
// and a new game, a move reply and /statsz all report that version.
func TestE2EModelVersionIsServingVersion(t *testing.T) {
	cfg := testConfig(t)
	cfg.InitialVersion = 7
	built := make(chan int64, 8) // room for extra builds: a second one fails the test, it does not block it
	cfg.NewEvaluator = func(v int64, _ *nn.Network) evaluate.Evaluator {
		built <- v
		return &evaluate.Random{}
	}
	_, ts := startServer(t, cfg)

	_, snap := post(t, ts.URL+"/v1/game/new", newGameRequest{})
	if snap.ModelVersion != 7 {
		t.Fatalf("new game reports version %d, want 7", snap.ModelVersion)
	}
	resp, reply := post(t, ts.URL+"/v1/game/"+snap.ID+"/move", move(snap.Legal[0]))
	if resp.StatusCode != http.StatusOK || reply.ModelVersion != 7 {
		t.Fatalf("move reply: status %d, version %d; want 200, 7", resp.StatusCode, reply.ModelVersion)
	}
	raw := getStatsz(t, ts.URL)
	if v := string(raw["model_version"]); v != "7" {
		t.Fatalf("/statsz model_version = %s, want 7", v)
	}
	if _, ok := raw["model_versions"]; ok {
		t.Fatal("/statsz still has a model_versions key")
	}
	if len(built) != 1 || <-built != 7 {
		t.Fatal("evaluator not built exactly once, for version 7")
	}
}

// TestE2EDrainAndErrors covers the remaining wire contract: draining
// answers 503 on healthz and new games, finished games answer 409, and
// illegal moves answer 400.
func TestE2EDrainAndErrors(t *testing.T) {
	svc, ts := startServer(t, testConfig(t))

	_, snap := post(t, ts.URL+"/v1/game/new", newGameRequest{})
	// Play the game out (random-legal from the wire snapshot).
	cur := snap
	for !cur.Terminal {
		resp, reply := post(t, ts.URL+"/v1/game/"+snap.ID+"/move", move(cur.Legal[0]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("move: status %d", resp.StatusCode)
		}
		cur = reply
	}
	resp, _ := post(t, ts.URL+"/v1/game/"+snap.ID+"/move", move(0))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("move on finished game: status %d, want 409", resp.StatusCode)
	}

	_, snap2 := post(t, ts.URL+"/v1/game/new", newGameRequest{})
	resp, _ = post(t, ts.URL+"/v1/game/"+snap2.ID+"/move", move(99))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("illegal move: status %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/game/new", newGameRequest{Game: "hex:7"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong-game creation: status %d, want 409", resp.StatusCode)
	}

	svc.Drain()
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hz.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/game/new", newGameRequest{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new game while draining: status %d, want 503", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/game/"+snap2.ID+"/move", move(snap2.Legal[0]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("move while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestServedLaunchesAreSingleRequests plays two users' games concurrently
// and reads /statsz: the shared server is a pool of batch 1, so every launch
// is one request and a threshold flush, and no quorum or deadline launches.
func TestServedLaunchesAreSingleRequests(t *testing.T) {
	_, ts := startServer(t, testConfig(t))

	rep := runLoad(loadConfig{url: ts.URL, users: 2, games: 2, seed: 5})
	if rep.Mismatches != 0 || rep.ErrorCount != 0 || rep.GamesCompleted != 4 {
		t.Fatalf("load run: %d mismatches, %d errors, %d games completed: %v", rep.Mismatches, rep.ErrorCount, rep.GamesCompleted, rep.Errors)
	}

	raw := getStatsz(t, ts.URL)
	st := map[string]int64{}
	for _, k := range []string{"eval_batches", "eval_requests", "eval_flush_threshold", "eval_flush_quorum", "eval_flush_deadline"} {
		var v int64
		if err := json.Unmarshal(raw[k], &v); err != nil {
			t.Fatalf("/statsz field %q: %v", k, err)
		}
		st[k] = v
	}
	if st["eval_requests"] == 0 || st["eval_batches"] != st["eval_requests"] || st["eval_flush_threshold"] != st["eval_batches"] {
		t.Fatalf("/statsz %v: want one request per launch, each a threshold flush", st)
	}
	if st["eval_flush_quorum"] != 0 || st["eval_flush_deadline"] != 0 {
		t.Fatalf("/statsz %v: want no quorum or deadline flush", st)
	}
}

// getStatsz fetches /statsz as raw JSON fields.
func getStatsz(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decode /statsz: %v", err)
	}
	return raw
}
