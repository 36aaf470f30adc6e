// Package arena evaluates game-playing strength: it pits two search
// engines against each other over a match with alternating colours and
// estimates a relative Elo rating. Section 5.5 argues that tree-parallel
// execution changes search trajectories but not decision quality; the
// arena is the tool that makes this claim testable for any pair of engine
// configurations (serial vs shared vs local vs the related-work
// baselines), and is what an open-source user would reach for to validate
// a trained network.
package arena

import (
	"fmt"
	"math"
	"time"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/train"
)

// MatchConfig configures a head-to-head match.
type MatchConfig struct {
	// Games is the number of games; colours alternate every game.
	Games int
	// Temperature applied when sampling moves (0 = deterministic argmax).
	// A small positive value (e.g. 0.1) decorrelates repeated games.
	Temperature float64
	// TempMoves applies Temperature only to the first TempMoves plies of
	// each game (0 = all plies).
	TempMoves int
	// Seed drives move sampling.
	Seed uint64
}

// MatchResult summarises a match from engine A's perspective.
type MatchResult struct {
	Games    int
	WinsA    int
	WinsB    int
	Draws    int
	Duration time.Duration
}

// Score returns A's match score in [0, 1]: wins plus half-draws.
func (r MatchResult) Score() float64 {
	if r.Games == 0 {
		return 0.5
	}
	return (float64(r.WinsA) + 0.5*float64(r.Draws)) / float64(r.Games)
}

// EloDiff estimates A's Elo advantage over B from the match score, clamped
// to ±max to keep degenerate sweeps readable.
func (r MatchResult) EloDiff(max float64) float64 {
	s := r.Score()
	const eps = 1e-3
	if s < eps {
		s = eps
	}
	if s > 1-eps {
		s = 1 - eps
	}
	elo := -400 * math.Log10(1/s-1)
	if elo > max {
		return max
	}
	if elo < -max {
		return -max
	}
	return elo
}

// String renders the result.
func (r MatchResult) String() string {
	return fmt.Sprintf("A %d : %d B (draws %d, score %.3f, elo %+.0f)",
		r.WinsA, r.WinsB, r.Draws, r.Score(), r.EloDiff(1000))
}

// Play runs the match. Engines are reused across games; they must not be
// shared with concurrent callers. Both engines are advanced past every
// played move — the mover's own action and, from the other side's view,
// the opponent's reply — so engines configured with mcts.Config.ReuseTree
// keep warm trees through a game; sessions are discarded at each game
// boundary.
func Play(g game.Game, engineA, engineB mcts.Engine, cfg MatchConfig) MatchResult {
	if cfg.Games < 1 {
		panic("arena: Games must be >= 1")
	}
	r := rng.New(cfg.Seed)
	var res MatchResult
	start := time.Now()
	for i := 0; i < cfg.Games; i++ {
		aPlaysFirst := i%2 == 0
		winner := playOne(g, engineA, engineB, aPlaysFirst, cfg, r)
		switch {
		case winner == game.Nobody:
			res.Draws++
		case (winner == game.P1) == aPlaysFirst:
			res.WinsA++
		default:
			res.WinsB++
		}
	}
	res.Games = cfg.Games
	res.Duration = time.Since(start)
	return res
}

func playOne(g game.Game, a, b mcts.Engine, aFirst bool, cfg MatchConfig, r *rng.Rand) game.Player {
	st := g.NewInitial()
	dist := make([]float32, g.NumActions())
	engines := [2]mcts.Engine{a, b}
	if !aFirst {
		engines[0], engines[1] = b, a
	}
	// g.MaxGameLength truncates pathological games.
	for ply := 0; !st.Terminal() && ply < g.MaxGameLength(); ply++ {
		engines[ply%2].Search(st, dist)
		temp := 0.0
		if cfg.Temperature > 0 && (cfg.TempMoves == 0 || ply < cfg.TempMoves) {
			temp = cfg.Temperature
		}
		action := train.SampleActionOrLegal(r, dist, temp, st)
		st.Play(action)
		if !st.Terminal() {
			// Warm both trees: the mover follows its own move, the other
			// engine follows the opponent's reply.
			a.Advance(action)
			b.Advance(action)
		}
	}
	// Game over: the next game starts from a fresh position, so any warm
	// subtree is invalid.
	a.Advance(mcts.DiscardTree)
	b.Advance(mcts.DiscardTree)
	return st.Winner()
}

// Tournament plays every pair of entrants once and reports a cross table
// of scores and Elo estimates relative to the first entrant.
type Entrant struct {
	Name   string
	Engine mcts.Engine
}

// TournamentResult is one pairwise outcome.
type TournamentResult struct {
	A, B   string
	Result MatchResult
}

// RoundRobin plays all distinct pairs with the given per-pair config.
func RoundRobin(g game.Game, entrants []Entrant, cfg MatchConfig) []TournamentResult {
	var out []TournamentResult
	for i := 0; i < len(entrants); i++ {
		for j := i + 1; j < len(entrants); j++ {
			res := Play(g, entrants[i].Engine, entrants[j].Engine, cfg)
			out = append(out, TournamentResult{
				A: entrants[i].Name, B: entrants[j].Name, Result: res,
			})
		}
	}
	return out
}
