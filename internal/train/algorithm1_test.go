package train_test

import (
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/selfplay"
	"github.com/parmcts/parmcts/internal/train"
)

// Algorithm 1's synchronous loop is selfplay.Trainer; the episode-at-a-time
// form this package used to carry is that loop over a fleet of one, which is
// what these tests hold it to: an episode is a round of one game.
func fleetOfOne(g game.Game, eng mcts.Engine, aug train.Augmenter, seed uint64) (*selfplay.Driver, *train.Replay) {
	replay := train.NewReplay(50000)
	return selfplay.NewDriver(g, []mcts.Engine{eng}, replay, aug, selfplay.Config{TempMoves: 2, Seed: seed}), replay
}

func TestTrainerRunReducesOrTracksLoss(t *testing.T) {
	g := tictactoe.New()
	cfg := mcts.DefaultConfig()
	cfg.Playouts = 40
	net := nn.MustNew(nn.TinyConfig(4, 3, 3, 9), rng.New(5))
	d, replay := fleetOfOne(g, mcts.NewSerial(cfg, evaluate.NewNN(net)), nil, 6)
	tr := selfplay.NewTrainer(d, net, selfplay.TrainerConfig{
		Rounds:        3,
		SGDIterations: 4,
		BatchSize:     16,
		LR:            0.02,
		Seed:          6,
	})
	var calls int
	stats := tr.Run(func(s selfplay.RoundStats) { calls++ })
	if calls != 3 || len(stats) != 3 {
		t.Fatalf("episodes reported %d/%d", calls, len(stats))
	}
	for i, s := range stats {
		if s.Round != i || s.Games != 1 {
			t.Fatalf("episode %d reported as round %d of %d games", i, s.Round, s.Games)
		}
		if s.Samples != s.Moves {
			t.Fatalf("samples %d != moves %d", s.Samples, s.Moves)
		}
		if s.Loss.TotalLoss() <= 0 {
			t.Fatal("loss not recorded")
		}
		if s.Throughput() <= 0 {
			t.Fatal("throughput not positive")
		}
		if s.Elapsed <= 0 {
			t.Fatal("elapsed missing")
		}
	}
	if replay.Len() == 0 {
		t.Fatal("replay empty after training")
	}
	if tr.Net() != net {
		t.Fatal("Net accessor wrong")
	}
}

func TestTrainerAugmentationMultipliesSamples(t *testing.T) {
	g := gomoku.NewSized(5)
	cfg := mcts.DefaultConfig()
	cfg.Playouts = 20
	c, _, _ := g.EncodedShape()
	net := nn.MustNew(nn.TinyConfig(c, 5, 5, 25), rng.New(7))
	d, replay := fleetOfOne(g, mcts.NewSerial(cfg, &evaluate.Random{}), train.GomokuAugmenter{Size: 5, Planes: c}, 8)
	stats := selfplay.NewTrainer(d, net, selfplay.TrainerConfig{Rounds: 1, BatchSize: 8, Seed: 8}).Run(nil)
	if got, want := replay.Len(), stats[0].Moves*8; got != want {
		t.Fatalf("replay has %d samples, want %d (8-fold)", got, want)
	}
}

func TestTrainerPanicsOnZeroEpisodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero episodes did not panic")
		}
	}()
	d, _ := fleetOfOne(tictactoe.New(), mcts.NewSerial(mcts.DefaultConfig(), &evaluate.Random{}), nil, 1)
	selfplay.NewTrainer(d, nil, selfplay.TrainerConfig{})
}
