// Package tictactoe registers 3x3 noughts-and-crosses, gomoku's k-in-a-row
// with k = 3 on a 3x3 board. Its game tree is small enough to solve
// exhaustively, which makes it the correctness anchor for the search
// engines: a sufficiently-deep MCTS must never lose from the empty board,
// and must find immediate wins/blocks.
package tictactoe

import (
	"fmt"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/gomoku"
)

const size = 3

func init() {
	game.Register("tictactoe", func(sz int) (game.Game, error) {
		if sz != 0 && sz != size {
			return nil, fmt.Errorf("board is fixed at %dx%d, cannot size to %d", size, size, sz)
		}
		return New(), nil
	})
}

// Game is the tic-tac-toe factory.
type Game struct{}

// New returns the game.
func New() *Game { return &Game{} }

// Name implements game.Game.
func (*Game) Name() string { return "tictactoe" }

// NumActions implements game.Game.
func (*Game) NumActions() int { return size * size }

// EncodedShape implements game.Game.
func (*Game) EncodedShape() (c, h, w int) { return game.Planes, size, size }

// MaxGameLength implements game.Game.
func (*Game) MaxGameLength() int { return size * size }

// NewInitial implements game.Game.
func (*Game) NewInitial() game.State { return gomoku.NewState(size, size, 0x7AC7AC) }
