// Package gomoku implements the 15x15 five-in-a-row benchmark used in the
// paper's evaluation (Section 5.1). The board size, action space (225) and
// four-plane network encoding follow the reference Gomoku AlphaZero setup
// the paper builds on.
package gomoku

import (
	"fmt"
	"strings"

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

// Planes is the number of input feature planes produced by Encode:
// own stones, opponent stones, last move, side-to-move indicator.
const Planes = 4

// zobrist tables are generated once per board size from a fixed seed so
// hashes are stable across runs; game.ZobristTable synchronizes the lazy
// cache against concurrent fleet drivers.
func zobrist(size int) []uint64 {
	return game.ZobristTable(0x60AB0C0DE+uint64(size), 2*size*size+1)
}

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
func (g *Game) EncodedShape() (c, h, w int) { return Planes, g.Size, g.Size }

// MaxGameLength implements game.Game.
func (g *Game) MaxGameLength() int { return g.Size * g.Size }

// NewInitial implements game.Game.
func (g *Game) NewInitial() game.State {
	return &State{
		size:     g.Size,
		cells:    make([]game.Player, g.Size*g.Size),
		toMove:   game.P1,
		lastMove: -1,
		zob:      zobrist(g.Size),
	}
}

// State is a Gomoku position.
type State struct {
	size     int
	cells    []game.Player
	toMove   game.Player
	lastMove int
	moves    int
	winner   game.Player
	done     bool
	hash     uint64
	zob      []uint64
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
	*s, s.cells = *o, append(s.cells[:0], o.cells...)
}

// ToMove implements game.State.
func (s *State) ToMove() game.Player { return s.toMove }

// Size returns the board edge length.
func (s *State) Size() int { return s.size }

// Cell returns the occupant of (row, col).
func (s *State) Cell(row, col int) game.Player { return s.cells[row*s.size+col] }

// MoveCount returns the number of stones placed.
func (s *State) MoveCount() int { return s.moves }

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
	return !s.done && action >= 0 && action < len(s.cells) && s.cells[action] == game.Nobody
}

// Play implements game.State.
func (s *State) Play(action int) {
	if !s.Legal(action) {
		panic("gomoku: illegal move")
	}
	p := s.toMove
	s.cells[action] = p
	side := 0
	if p == game.P2 {
		side = 1
	}
	s.hash ^= s.zob[side*s.size*s.size+action]
	s.hash ^= s.zob[len(s.zob)-1] // toggle side-to-move key
	s.lastMove = action
	s.moves++
	if s.winsAt(action, p) {
		s.winner = p
		s.done = true
	} else if s.moves == len(s.cells) {
		s.done = true // draw: board full
	}
	s.toMove = p.Opponent()
}

// winsAt checks the four line directions through the just-played cell,
// an O(WinLength) incremental check instead of a full board scan.
func (s *State) winsAt(action int, p game.Player) bool {
	row, col := action/s.size, action%s.size
	dirs := [4][2]int{{0, 1}, {1, 0}, {1, 1}, {1, -1}}
	for _, d := range dirs {
		count := 1
		for sign := -1; sign <= 1; sign += 2 {
			r, c := row, col
			for {
				r += sign * d[0]
				c += sign * d[1]
				if r < 0 || r >= s.size || c < 0 || c >= s.size || s.cells[r*s.size+c] != p {
					break
				}
				count++
			}
		}
		if count >= WinLength {
			return true
		}
	}
	return false
}

// Terminal implements game.State.
func (s *State) Terminal() bool { return s.done }

// Winner implements game.State.
func (s *State) Winner() game.Player { return s.winner }

// NumActions implements game.State.
func (s *State) NumActions() int { return len(s.cells) }

// EncodedShape implements game.State.
func (s *State) EncodedShape() (c, h, w int) { return Planes, s.size, s.size }

// Encode implements game.State. Planes (from the mover's perspective):
//
//	0: stones of the player to move
//	1: stones of the opponent
//	2: one-hot last move
//	3: all-ones if the player to move is P1, else zeros
func (s *State) Encode(dst []float32) {
	n := s.size * s.size
	if len(dst) != Planes*n {
		panic("gomoku: Encode buffer has wrong length")
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
			dst[n+i] = 1
		}
	}
	if s.lastMove >= 0 {
		dst[2*n+s.lastMove] = 1
	}
	if s.toMove == game.P1 {
		for i := 0; i < n; i++ {
			dst[3*n+i] = 1
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

// String renders the board for debugging.
func (s *State) String() string {
	var sb strings.Builder
	for r := 0; r < s.size; r++ {
		for c := 0; c < s.size; c++ {
			switch s.cells[r*s.size+c] {
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
