// Package tictactoe implements 3x3 noughts-and-crosses. Its game tree is
// small enough to solve exhaustively, which makes it the correctness anchor
// for the search engines: a sufficiently-deep MCTS must never lose from the
// empty board, and must find immediate wins/blocks.
package tictactoe

import (
	"fmt"
	"strings"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
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

// Planes is the number of encoding planes (mirrors gomoku's layout).
const Planes = 4

var zobristTab = func() []uint64 {
	r := rng.New(0x7AC7AC)
	t := make([]uint64, 2*size*size+1)
	for i := range t {
		t[i] = r.Uint64()
	}
	return t
}()

var winLines = [8][3]int{
	{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, // rows
	{0, 3, 6}, {1, 4, 7}, {2, 5, 8}, // cols
	{0, 4, 8}, {2, 4, 6}, // diagonals
}

// Game is the tic-tac-toe factory.
type Game struct{}

// New returns the game.
func New() *Game { return &Game{} }

// Name implements game.Game.
func (*Game) Name() string { return "tictactoe" }

// NumActions implements game.Game.
func (*Game) NumActions() int { return 9 }

// EncodedShape implements game.Game.
func (*Game) EncodedShape() (c, h, w int) { return Planes, size, size }

// MaxGameLength implements game.Game.
func (*Game) MaxGameLength() int { return 9 }

// NewInitial implements game.Game.
func (*Game) NewInitial() game.State {
	return &State{toMove: game.P1, lastMove: -1}
}

// State is a tic-tac-toe position.
type State struct {
	cells    [9]game.Player
	toMove   game.Player
	lastMove int
	moves    int
	winner   game.Player
	done     bool
	hash     uint64
}

var _ game.State = (*State)(nil)

// Clone implements game.State.
func (s *State) Clone() game.State {
	c := *s
	return &c
}

// CopyFrom implements game.State.
func (s *State) CopyFrom(src game.State) { *s = *src.(*State) }

// ToMove implements game.State.
func (s *State) ToMove() game.Player { return s.toMove }

// LegalMoves implements game.State.
func (s *State) LegalMoves(dst []int) []int {
	if s.done {
		return dst
	}
	for i, c := range s.cells {
		if c == game.Nobody {
			dst = append(dst, i)
		}
	}
	return dst
}

// Legal implements game.State.
func (s *State) Legal(action int) bool {
	return !s.done && action >= 0 && action < 9 && s.cells[action] == game.Nobody
}

// Play implements game.State.
func (s *State) Play(action int) {
	if !s.Legal(action) {
		panic("tictactoe: illegal move")
	}
	p := s.toMove
	s.cells[action] = p
	side := 0
	if p == game.P2 {
		side = 1
	}
	s.hash ^= zobristTab[side*9+action]
	s.hash ^= zobristTab[len(zobristTab)-1]
	s.lastMove = action
	s.moves++
	for _, line := range winLines {
		if s.cells[line[0]] == p && s.cells[line[1]] == p && s.cells[line[2]] == p {
			s.winner = p
			s.done = true
			break
		}
	}
	if !s.done && s.moves == 9 {
		s.done = true
	}
	s.toMove = p.Opponent()
}

// Terminal implements game.State.
func (s *State) Terminal() bool { return s.done }

// Winner implements game.State.
func (s *State) Winner() game.Player { return s.winner }

// NumActions implements game.State.
func (s *State) NumActions() int { return 9 }

// EncodedShape implements game.State.
func (s *State) EncodedShape() (c, h, w int) { return Planes, size, size }

// Encode implements game.State (same plane layout as gomoku).
func (s *State) Encode(dst []float32) {
	if len(dst) != Planes*9 {
		panic("tictactoe: Encode buffer has wrong length")
	}
	for i := range dst {
		dst[i] = 0
	}
	me := s.toMove
	for i, c := range s.cells {
		switch c {
		case me:
			dst[i] = 1
		case me.Opponent():
			dst[9+i] = 1
		}
	}
	if s.lastMove >= 0 {
		dst[18+s.lastMove] = 1
	}
	if s.toMove == game.P1 {
		for i := 0; i < 9; i++ {
			dst[27+i] = 1
		}
	}
}

// Hash implements game.State.
func (s *State) Hash() uint64 { return s.hash }

// AppendStateKey implements game.State: cell occupancy plus the side
// to move — exactly the identity the Zobrist hash covers.
func (s *State) AppendStateKey(dst []byte) []byte {
	for _, c := range s.cells {
		dst = append(dst, byte(c+1))
	}
	return append(dst, byte(s.toMove+1))
}

// String renders the board.
func (s *State) String() string {
	var sb strings.Builder
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			switch s.cells[r*3+c] {
			case game.P1:
				sb.WriteByte('X')
			case game.P2:
				sb.WriteByte('O')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
