// Package connect4 implements 7x6 Connect Four. Compared to Gomoku it has a
// much smaller fanout (7) and deeper forced tactics, which stresses the
// opposite corner of the performance-model parameter space (the tree-depth
// term of T_select) and serves as the second domain-specific example. Its
// rules are gravity over the shared game.Board: a drop lands on its
// column's lowest empty cell, and four in a row wins.
package connect4

import (
	"fmt"
	"strings"

	"github.com/parmcts/parmcts/internal/game"
)

// Board dimensions.
const (
	Cols = 7
	Rows = 6
)

func init() {
	game.Register("connect4", func(size int) (game.Game, error) {
		if size != 0 {
			return nil, fmt.Errorf("board is fixed at %dx%d, cannot size to %d", Cols, Rows, size)
		}
		return New(), nil
	})
}

// Game is the Connect Four factory.
type Game struct{}

// New returns the game.
func New() *Game { return &Game{} }

// Name implements game.Game.
func (*Game) Name() string { return "connect4" }

// NumActions implements game.Game. Actions are column drops.
func (*Game) NumActions() int { return Cols }

// EncodedShape implements game.Game.
func (*Game) EncodedShape() (c, h, w int) { return game.Planes, Rows, Cols }

// MaxGameLength implements game.Game.
func (*Game) MaxGameLength() int { return Cols * Rows }

// NewInitial implements game.Game.
func (*Game) NewInitial() game.State {
	return &State{Board: game.NewBoard(Cols, Rows, 0xC0441EC7, 0)}
}

// State is a Connect Four position. Cells are stored row-major with row 0
// at the bottom.
type State struct {
	game.Board
	height [Cols]int
}

var _ game.State = (*State)(nil)

// Clone implements game.State.
func (s *State) Clone() game.State {
	c := &State{}
	c.CopyFrom(s)
	return c
}

// CopyFrom implements game.State.
func (s *State) CopyFrom(src game.State) {
	o := src.(*State)
	*s, s.Cells = *o, append(s.Cells[:0], o.Cells...)
}

// LegalMoves implements game.State.
func (s *State) LegalMoves(dst []int) []int {
	if s.Terminal() {
		return dst
	}
	for c := 0; c < Cols; c++ {
		if s.height[c] < Rows {
			dst = append(dst, c)
		}
	}
	return dst
}

// Legal implements game.State.
func (s *State) Legal(action int) bool {
	return !s.Terminal() && action >= 0 && action < Cols && s.height[action] < Rows
}

// Play implements game.State. The action is a column index.
func (s *State) Play(action int) {
	if !s.Legal(action) {
		panic("connect4: illegal move")
	}
	p := s.ToMove()
	cell := s.height[action]*Cols + action
	s.height[action]++
	s.Set(cell, p)
	s.EndTurn(cell)
	if s.InRow(cell, 4) {
		s.Finish(p)
	} else if s.Moves == Rows*Cols {
		s.Finish(game.Nobody)
	}
}

// NumActions implements game.State.
func (s *State) NumActions() int { return Cols }

// String renders the board, top row first.
func (s *State) String() string {
	var sb strings.Builder
	for r := Rows - 1; r >= 0; r-- {
		for _, c := range s.Cells[r*Cols : (r+1)*Cols] {
			sb.WriteByte(c.Glyph())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
