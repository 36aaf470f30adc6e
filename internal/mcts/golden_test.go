package mcts

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/games"
)

// goldenMoves is the number of consecutive moves each golden line records.
const goldenMoves = 6

// golden holds, per engine and game, one FNV-64a per move over the root
// visit distribution's float bits and the deterministic Stats counters. The
// values were recorded at the commit before the four rollouts were folded
// into one step, with root noise ON and the default virtual-loss mode — the
// two things the VLNone, noise-free equivalence suite does not pin: the
// order in which each engine draws from its noise stream (Serial and Local
// from the engine stream, Shared from a per-worker split of it) and the
// trajectories virtual loss produces at concurrency 1. A change to the
// rollout must leave every value untouched.
var golden = map[string][goldenMoves]uint64{
	"serial/othello:6": {0xd3a7d8f857f27d7b, 0x2772b8f1b7debad9, 0xa98dfa994b2d010c, 0x680d65adb8d45178, 0x5486cef1e2ec407f, 0xd37285f04fdcc281},
	"serial/gomoku:9":  {0xb4543495d92666d, 0x3f2de13169acd5ea, 0x8e4295ff4d7e2e14, 0x3d3934ca58430de2, 0x7a83f4655927c4a6, 0xb4e7e40642c77674},
	"shared/othello:6": {0x7e744c4c680fd328, 0xfdcbc5250670f49b, 0xd7cd97a4b1df55a, 0x1f998f8b21a052c8, 0xffb6322e5bbbe199, 0x8b6b14d7166b8380},
	"shared/gomoku:9":  {0x94ff314b1686533a, 0x3299506a9203af84, 0x49b782f8c5930d55, 0x67646a07e728e152, 0x30dcbacb0cef5638, 0xff0c711382708db3},
	"local/othello:6":  {0xd3a7d8f857f27d7b, 0x2772b8f1b7debad9, 0xa98dfa994b2d010c, 0x680d65adb8d45178, 0x5486cef1e2ec407f, 0xd37285f04fdcc281},
	// Local at one evaluation in flight marks no virtual loss, so its rows
	// are Serial's (moves 0 and 3 of gomoku:9 were not while it marked).
	"local/gomoku:9": {0xb4543495d92666d, 0x3f2de13169acd5ea, 0x8e4295ff4d7e2e14, 0x3d3934ca58430de2, 0x7a83f4655927c4a6, 0xb4e7e40642c77674},
	// Local with several evaluations in flight on a pool whose two
	// launchers finish them in any order. The rows hold because the master
	// applies evaluations in submission order, whatever order they finish in.
	"local-2/othello:6": {0xae08f22ea7954aad, 0x2c382fcd99ca1013, 0xec8a680187345dcb, 0xa80685a9e3c19402, 0x53aab7850e5aac58, 0x76a681df03111cef},
	"local-2/gomoku:9":  {0x5e1e5a559ac37a9d, 0x5190a01949800f27, 0xb248cf89f09d3e41, 0x8c04c87e86695a77, 0x56f47d827fd72845, 0xbe88b76e4411bf71},
	"local-4/othello:6": {0x620757a613748cdf, 0xf9d8ce90ec90b764, 0x6a8fca5a9c1aef29, 0xa3231df25b216dec, 0xccfec5092ebe20d6, 0xa034d89d8679d80a},
	"local-4/gomoku:9":  {0xca4cd2d9181840a, 0xf5b1278a0fe64c72, 0x883e8bd694ccf5d9, 0x4e406df058ee5243, 0x601e43ac2907678a, 0x5e4a56d891d8a274},
}

func goldenCfg() Config {
	cfg := DefaultConfig()
	cfg.Playouts = 200
	cfg.DirichletAlpha = 0.3
	cfg.NoiseFrac = 0.25
	cfg.ReuseTree = true
	cfg.TransposeSize = 4096
	cfg.Seed = 7
	return cfg
}

func TestGolden(t *testing.T) {
	eval := &evaluate.Random{}
	local := func(workers, k int) func() Engine {
		return func() Engine {
			pool := evaluate.NewPool(eval, workers)
			t.Cleanup(pool.Close)
			return NewLocal(goldenCfg(), pool, k)
		}
	}
	engines := []struct {
		name string
		mk   func() Engine
	}{
		{"serial", func() Engine { return NewSerial(goldenCfg(), eval) }},
		{"shared", func() Engine { return NewShared(goldenCfg(), 1, eval) }},
		{"local", local(1, 1)},
		{"local-2", local(2, 2)},
		{"local-4", local(2, 4)},
	}
	for _, ec := range engines {
		for _, spec := range []string{"othello:6", "gomoku:9"} {
			name := ec.name + "/" + spec
			t.Run(name, func(t *testing.T) {
				e := ec.mk()
				defer e.Close()
				st := games.MustNew(spec).NewInitial()
				dist := make([]float32, st.NumActions())
				var got [goldenMoves]uint64
				for mv := range got {
					s := e.Search(st, dist)
					h := fnv.New64a()
					var b [8]byte
					for _, p := range dist {
						binary.LittleEndian.PutUint32(b[:4], math.Float32bits(p))
						h.Write(b[:4])
					}
					for _, v := range []int{s.Playouts, s.Evaluations, s.Expansions,
						s.TerminalHits, s.TransHits, s.SumDepth, s.ReusedVisits} {
						binary.LittleEndian.PutUint64(b[:], uint64(v))
						h.Write(b[:])
					}
					got[mv] = h.Sum64()
					a := argmax32(dist)
					e.Advance(a)
					st.Play(a)
				}
				if want := golden[name]; got != want {
					t.Errorf("trajectory changed:\n got  %#x\n want %#x", got, want)
				}
			})
		}
	}
}

// TestLocalOneInFlightIsSerial: a local engine built for several
// evaluations in flight but searched at one is the serial engine — same
// visit distribution, same counters, move after move, root noise, tree reuse
// and transposition table on.
func TestLocalOneInFlightIsSerial(t *testing.T) {
	eval := &evaluate.Random{}
	counters := func(s Stats) Stats {
		s.Duration, s.SelectTime, s.ExpandTime, s.BackupTime, s.EvalTime = 0, 0, 0, 0, 0
		return s
	}
	for _, spec := range []string{"gomoku:9", "othello:6", "tictactoe"} {
		t.Run(spec, func(t *testing.T) {
			pool := evaluate.NewPool(eval, 2)
			defer pool.Close()
			local := NewLocal(goldenCfg(), pool, 4)
			defer local.Close()
			serial := NewSerial(goldenCfg(), eval)
			defer serial.Close()
			st := games.MustNew(spec).NewInitial()
			want := make([]float32, st.NumActions())
			got := make([]float32, st.NumActions())
			for mv := 0; mv < goldenMoves && !st.Terminal(); mv++ {
				ws := serial.Search(st, want)
				gs := local.SearchInFlight(st, got, 1)
				if counters(gs) != counters(ws) {
					t.Fatalf("move %d: local at k = 1 %+v, serial %+v", mv, counters(gs), counters(ws))
				}
				for a := range want {
					if math.Float32bits(got[a]) != math.Float32bits(want[a]) {
						t.Fatalf("move %d: visit share of action %d is %v at k = 1, %v serial", mv, a, got[a], want[a])
					}
				}
				a := argmax32(want)
				serial.Advance(a)
				local.Advance(a)
				st.Play(a)
			}
		})
	}
}
