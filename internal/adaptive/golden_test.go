package adaptive

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/perfmodel"
)

// configureGolden holds, per scheme × platform, one FNV-64a over a 6-move
// game played by the engine Configure returns at Workers: 1 with root noise
// on: each move's visit distribution (float bits) and the move played. The
// values were recorded at the commit before Configure became a fleet of one,
// when a single engine was still instantiated by its own switch over private
// evaluator adapters; the fleet builder must reproduce them move for move.
var configureGolden = map[string]uint64{
	"shared/cpu":       0x97ceaa5066a981fa,
	"shared/cpu-accel": 0x67862511bf74b6ba,
	"local/cpu":        0x8c1f5edc315ec4e3,
	"local/cpu-accel":  0xe829418bd740eaf1,
}

// playGolden plays six greedy moves with e and hashes what it searched.
func playGolden(g game.Game, e mcts.Engine) uint64 {
	st := g.NewInitial()
	dist := make([]float32, st.NumActions())
	h := fnv.New64a()
	var b [8]byte
	for mv := 0; mv < 6; mv++ {
		e.Search(st, dist)
		best := 0
		for a, p := range dist {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(p))
			h.Write(b[:4])
			if p > dist[best] {
				best = a
			}
		}
		binary.LittleEndian.PutUint64(b[:], uint64(best))
		h.Write(b[:])
		e.Advance(best)
		st.Play(best)
	}
	return h.Sum64()
}

func TestConfigureIsFleetOfOneGolden(t *testing.T) {
	g := games.MustNew("gomoku:7")
	cost := accel.DefaultCostModel()
	cost.LaunchLatency, cost.ComputeBase, cost.ComputePerSample = 0, 0, 0
	for _, scheme := range []perfmodel.Scheme{perfmodel.SchemeShared, perfmodel.SchemeLocal} {
		for _, platform := range []Platform{PlatformCPU, PlatformAccel} {
			name := scheme.String() + "/" + platform.String()
			t.Run(name, func(t *testing.T) {
				s := scheme
				opts := Options{
					Search:          searchCfg(80),
					Workers:         1,
					Platform:        platform,
					Evaluator:       &evaluate.Random{},
					Link:            modelLink(t, cost),
					ProfilePlayouts: 50,
					DNNProfileIters: 3,
					ForceScheme:     &s,
				}
				opts.Search.DirichletAlpha = 0.3
				opts.Search.NoiseFrac = 0.25
				opts.Search.Seed = 11

				eng, err := Configure(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				single := playGolden(g, eng)
				eng.Close()
				if want := configureGolden[name]; single != want {
					t.Errorf("Configure trajectory changed: got %#x, want %#x", single, want)
				}

				fleet, err := ConfigureFleet(g, 1, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer fleet.Close()
				if got := playGolden(g, fleet.Engines[0]); got != single {
					t.Errorf("ConfigureFleet(g, 1) plays %#x, Configure plays %#x", got, single)
				}
			})
		}
	}
}
