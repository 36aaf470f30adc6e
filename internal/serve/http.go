package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Snapshot is the wire view of a game session, returned by every endpoint
// that touches a game (API.md documents the schema).
type Snapshot struct {
	// ID is the session id issued by /v1/game/new.
	ID string `json:"id"`
	// Game is the registry spec of the hosted scenario (e.g. "gomoku:9").
	Game string `json:"game"`
	// Ply counts applied moves (user + engine).
	Ply int `json:"ply"`
	// ToMove is the side to move: 1 (first mover) or -1.
	ToMove int `json:"to_move"`
	// EngineSide is the side the engine plays: 1 or -1. The user plays the
	// other side; after every non-terminal response it is the user's turn.
	EngineSide int `json:"engine_side"`
	// Legal lists the legal action indices for the side to move (omitted on
	// terminal positions).
	Legal []int `json:"legal,omitempty"`
	// Terminal reports whether the game has ended.
	Terminal bool `json:"terminal"`
	// Winner is 1, -1, or 0 (draw / game in progress).
	Winner int `json:"winner"`
	// ModelVersion is the network version the service serves.
	ModelVersion int64 `json:"model_version"`
	// EngineMove is the action the engine just played (move responses and
	// engine-starts creations only).
	EngineMove *int `json:"engine_move,omitempty"`
	// Stats describes the engine's search for EngineMove, when present.
	Stats *MoveStats `json:"stats,omitempty"`
}

// MoveStats summarises one engine reply search.
type MoveStats struct {
	// Action is the move the engine chose (also echoed as EngineMove).
	Action int `json:"action"`
	// Playouts is the number of fresh rollouts the search ran.
	Playouts int `json:"playouts"`
	// Evaluations is the number of network forward passes bought.
	Evaluations int `json:"evaluations"`
	// ReusedVisits is the visit count retained from the previous move's
	// tree (warm-session subtree reuse).
	ReusedVisits int `json:"reused_visits"`
	// ReuseFraction is ReusedVisits/(ReusedVisits+Playouts).
	ReuseFraction float64 `json:"reuse_fraction"`
	// TransHits counts evaluations served from the shared transposition
	// table instead of the network.
	TransHits int `json:"trans_hits"`
	// InFlight is the number of evaluations the search kept in flight at
	// most: its load-adaptive budget (OPERATIONS.md).
	InFlight int `json:"in_flight"`
	// DurationMS is the wall-clock search+move time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
}

// newGameRequest is the /v1/game/new request body (all fields optional).
type newGameRequest struct {
	// Game, when set, must name this server's hosted spec (reject rather
	// than silently serve the wrong scenario).
	Game string `json:"game,omitempty"`
	// EngineStarts seats the engine as first mover; it replies with its
	// opening move in the creation response.
	EngineStarts bool `json:"engine_starts,omitempty"`
}

// moveRequest is the /v1/game/{id}/move request body; Action is required.
type moveRequest struct {
	Action *int `json:"action"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Statsz is the /statsz operational snapshot (field reference in
// OPERATIONS.md).
type Statsz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Game          string  `json:"game"`
	ModelVersion  int64   `json:"model_version"`
	Draining      bool    `json:"draining"`

	SessionsActive   int     `json:"sessions_active"`
	SessionsBudget   int     `json:"sessions_budget"`
	SessionsCreated  int64   `json:"sessions_created"`
	SessionsEvicted  int64   `json:"sessions_evicted"`
	SearchArenas     int64   `json:"search_arenas"`
	GamesCompleted   int64   `json:"games_completed"`
	MovesServed      int64   `json:"moves_served"`
	MovesInFlight    int64   `json:"moves_in_flight"`
	MovesRejected    int64   `json:"moves_rejected_429"`
	AdmissionLimit   int     `json:"admission_limit"`
	EvalOutstanding  int     `json:"eval_outstanding"`
	EvalMaxOutstand  int     `json:"eval_max_outstanding"`
	EvalBatches      int64   `json:"eval_batches"`
	EvalRequests     int64   `json:"eval_requests"`
	EvalAvgBatchFill float64 `json:"eval_avg_batch_fill"`
	// EvalFlush* split eval_batches by what launched them: a full batch, the
	// quorum, the deadline. The server is a pool of batch 1, so every launch
	// is one request and a threshold flush: eval_avg_batch_fill reads 1, and
	// the quorum and deadline counts read 0.
	EvalFlushThreshold int64 `json:"eval_flush_threshold"`
	EvalFlushQuorum    int64 `json:"eval_flush_quorum"`
	EvalFlushDeadline  int64 `json:"eval_flush_deadline"`

	SearchPlayouts     int64   `json:"search_playouts"`
	SearchEvaluations  int64   `json:"search_evaluations"`
	SearchReusedVisits int64   `json:"search_reused_visits"`
	ReuseFraction      float64 `json:"reuse_fraction"`
	TransHits          int64   `json:"trans_hits"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheLen    int    `json:"cache_len"`
}

// Stats renders the operational snapshot.
func (s *Service) Stats() Statsz {
	s.mu.Lock()
	active := len(s.sessions)
	draining := s.draining
	s.mu.Unlock()

	srvStats := s.srv.Stats()
	out := Statsz{
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Game:               s.cfg.GameSpec,
		ModelVersion:       s.cfg.InitialVersion,
		Draining:           draining,
		SessionsActive:     active,
		SessionsBudget:     s.cfg.MaxSessions,
		SessionsCreated:    s.created.Load(),
		SessionsEvicted:    s.evictedN.Load(),
		SearchArenas:       s.arenas.Load(),
		GamesCompleted:     s.completed.Load(),
		MovesServed:        s.moves.Load(),
		MovesInFlight:      s.searching.Load(),
		MovesRejected:      s.rejected.Load(),
		AdmissionLimit:     s.cfg.MaxConcurrentMoves,
		EvalOutstanding:    s.srv.Outstanding(),
		EvalMaxOutstand:    s.srv.MaxOutstanding(),
		EvalBatches:        srvStats.Batches,
		EvalRequests:       srvStats.Requests,
		EvalAvgBatchFill:   srvStats.AvgFill(),
		EvalFlushThreshold: srvStats.ThresholdFlushes,
		EvalFlushQuorum:    srvStats.QuorumFlushes,
		EvalFlushDeadline:  srvStats.DeadlineFlushes,
		SearchPlayouts:     s.playoutsN.Load(),
		SearchEvaluations:  s.evalsN.Load(),
		SearchReusedVisits: s.reusedVis.Load(),
		TransHits:          s.transHitsN.Load(),
	}
	if total := out.SearchReusedVisits + out.SearchPlayouts; total > 0 {
		out.ReuseFraction = float64(out.SearchReusedVisits) / float64(total)
	}
	if s.cache != nil {
		out.CacheHits, out.CacheMisses = s.cache.Stats()
		out.CacheLen = s.cache.Len()
	}
	return out
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/game/new       create a session (optional body: {"game","engine_starts"})
//	POST /v1/game/{id}/move play a move: {"action": n}
//	GET  /v1/game/{id}      poll a session
//	GET  /healthz           liveness ("ok", or 503 while draining)
//	GET  /statsz            operational stats JSON
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/game/new", s.handleNew)
	mux.HandleFunc("POST /v1/game/{id}/move", s.handleMove)
	mux.HandleFunc("GET /v1/game/{id}", s.handleGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

// maxBodyBytes bounds what one request body can make the service read; a
// well-formed body is a few dozen bytes.
const maxBodyBytes = 4 << 10

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes of
// it, and answers 400 bad_request when it cannot or when anything but white
// space follows the value, as json.Unmarshal would.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("malformed or oversized JSON body: %v", err), 0)
	}
	return err == nil
}

func (s *Service) handleNew(w http.ResponseWriter, r *http.Request) {
	var req newGameRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	if req.Game != "" && req.Game != s.cfg.GameSpec {
		writeError(w, http.StatusConflict, "wrong_game",
			fmt.Sprintf("this server hosts %q, not %q", s.cfg.GameSpec, req.Game), 0)
		return
	}
	snap, ms, err := s.NewGame(req.EngineStarts)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	attachMove(&snap, ms)
	writeJSON(w, http.StatusCreated, snap)
}

func (s *Service) handleMove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req moveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Action == nil {
		writeError(w, http.StatusBadRequest, "bad_request", `the move body needs an "action"`, 0)
		return
	}
	snap, ms, err := s.Move(id, *req.Action)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	attachMove(&snap, ms)
	writeJSON(w, http.StatusOK, snap)
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Get(r.PathValue("id"))
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// attachMove folds the engine's reply into the snapshot body.
func attachMove(snap *Snapshot, ms *MoveStats) {
	if ms == nil {
		return
	}
	a := ms.Action
	snap.EngineMove = &a
	snap.Stats = ms
}

// writeServiceError maps the typed service errors onto the wire contract.
func (s *Service) writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "not_found", err.Error(), 0)
	case errors.Is(err, ErrGone):
		writeError(w, http.StatusGone, "gone", err.Error(), 0)
	case errors.Is(err, ErrSaturated):
		writeError(w, http.StatusTooManyRequests, "saturated", err.Error(), s.cfg.RetryAfter)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", err.Error(), s.cfg.RetryAfter)
	case errors.Is(err, ErrGameOver):
		writeError(w, http.StatusConflict, "game_over", err.Error(), 0)
	case errors.Is(err, ErrIllegalMove):
		writeError(w, http.StatusBadRequest, "illegal_move", err.Error(), 0)
	case errors.Is(err, ErrWrongGame):
		writeError(w, http.StatusConflict, "wrong_game", err.Error(), 0)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
	}
}

func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		// Retry-After is whole seconds; round up so clients never retry early.
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
