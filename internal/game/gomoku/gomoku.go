// Package gomoku implements k-in-a-row on a square board. Its registered
// game is the 15x15 five-in-a-row benchmark used in the paper's evaluation
// (Section 5.1), with the action space (225) and four-plane network
// encoding of the reference Gomoku AlphaZero setup the paper builds on.
// NewState plays any k on any edge: tictactoe is NewState(3, 3, seed).
package gomoku

import (
	"fmt"

	"github.com/parmcts/parmcts/internal/game"
)

// DefaultSize is the board edge length used throughout the paper.
const DefaultSize = 15

func init() {
	game.Register("gomoku", func(size int) (game.Game, error) {
		if size == 0 {
			size = DefaultSize
		}
		if size < WinLength {
			return nil, fmt.Errorf("board %d smaller than win length %d", size, WinLength)
		}
		return &Game{Size: size}, nil
	})
}

// WinLength is the number of aligned stones required to win.
const WinLength = 5

// Game is the Gomoku game factory.
type Game struct {
	Size int
}

// New returns a Gomoku game with the standard 15x15 board.
func New() *Game { return &Game{Size: DefaultSize} }

// NewSized returns a Gomoku game with a custom board edge (min 5), useful
// for fast tests.
func NewSized(size int) *Game {
	if size < WinLength {
		panic("gomoku: board smaller than win length")
	}
	return &Game{Size: size}
}

// Name implements game.Game.
func (g *Game) Name() string { return "gomoku" }

// NumActions implements game.Game.
func (g *Game) NumActions() int { return g.Size * g.Size }

// EncodedShape implements game.Game.
func (g *Game) EncodedShape() (c, h, w int) { return game.Planes, g.Size, g.Size }

// MaxGameLength implements game.Game.
func (g *Game) MaxGameLength() int { return g.Size * g.Size }

// NewInitial implements game.Game. The hash seed is fixed per board size,
// so hashes are stable across runs.
func (g *Game) NewInitial() game.State {
	return NewState(g.Size, WinLength, 0x60AB0C0DE+uint64(g.Size))
}

// State is a k-in-a-row position: players alternately place a stone on an
// empty cell, k in a line wins, and a full board draws.
type State struct {
	game.Board
	k int
}

var _ game.State = (*State)(nil)

// NewState returns the empty size x size board of k-in-a-row, hashed with
// the keys seed derives.
func NewState(size, k int, seed uint64) *State {
	return &State{Board: game.NewBoard(size, size, seed, 0), k: k}
}

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

// LegalMoves implements game.State: every empty cell.
func (s *State) LegalMoves(dst []int) []int {
	if s.Terminal() {
		return dst
	}
	for i, c := range s.Cells {
		if c == game.Nobody {
			dst = append(dst, i)
		}
	}
	return dst
}

// Legal implements game.State.
func (s *State) Legal(action int) bool {
	return !s.Terminal() && action >= 0 && action < len(s.Cells) && s.Cells[action] == game.Nobody
}

// Play implements game.State.
func (s *State) Play(action int) {
	if !s.Legal(action) {
		panic("gomoku: illegal move")
	}
	p := s.ToMove()
	s.Set(action, p)
	s.EndTurn(action)
	if s.InRow(action, s.k) {
		s.Finish(p)
	} else if s.Moves == len(s.Cells) {
		s.Finish(game.Nobody) // draw: board full
	}
}

// NumActions implements game.State.
func (s *State) NumActions() int { return len(s.Cells) }
