// Gomoku self-play training: the workload the paper's introduction
// motivates. Runs a few episodes of Algorithm 1 on a small board with
// 8-fold symmetry augmentation and prints the loss trajectory — a
// miniature of Figure 7.
//
//	go run ./examples/gomoku_selfplay
package main

import (
	"fmt"
	"log"

	"github.com/parmcts/parmcts/internal/adaptive"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/selfplay"
	"github.com/parmcts/parmcts/internal/train"
)

func main() {
	const board = 7
	g := gomoku.NewSized(board)
	c, h, w := g.EncodedShape()
	net := nn.MustNew(nn.TinyConfig(c, h, w, g.NumActions()), rng.New(7))

	search := mcts.DefaultConfig()
	search.Playouts = 64
	search.DirichletAlpha = 0.3 // root exploration noise for self-play
	search.NoiseFrac = 0.25
	eng, err := adaptive.Configure(g, adaptive.Options{
		Search:    search,
		Workers:   4,
		Platform:  adaptive.PlatformCPU,
		Evaluator: evaluate.NewNN(net),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	fmt.Println("scheme chosen by the adaptive workflow:", eng.Decision)

	// Algorithm 1's loop over one engine: an episode is a round of one game.
	replay := train.NewReplay(50000)
	driver := selfplay.NewDriver(g, []mcts.Engine{eng}, replay, train.GomokuAugmenter{Size: board, Planes: c}, selfplay.Config{
		TempMoves: 4,
		Seed:      7,
	})
	tr := selfplay.NewTrainer(driver, net, selfplay.TrainerConfig{
		Rounds:        4,
		SGDIterations: 6,
		BatchSize:     64,
		LR:            0.02,
		Momentum:      0.9,
		WeightDecay:   1e-4,
		Seed:          7,
	})
	tr.Run(func(s selfplay.RoundStats) {
		fmt.Printf("episode %d: %2d moves, loss %.4f (value %.4f, policy %.4f), %.2f samples/s\n",
			s.Round, s.Moves, s.Loss.TotalLoss(), s.Loss.ValueLoss, s.Loss.PolicyLoss,
			s.Throughput())
	})
	fmt.Printf("replay buffer holds %d augmented samples\n", replay.Len())
}
