// Package connect4 implements 7x6 Connect Four. Compared to Gomoku it has a
// much smaller fanout (7) and deeper forced tactics, which stresses the
// opposite corner of the performance-model parameter space (the tree-depth
// term of T_select) and serves as the second domain-specific example.
package connect4

import (
	"fmt"
	"strings"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
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

// Planes is the number of encoding planes (mirrors gomoku's layout).
const Planes = 4

var zobristTab = func() []uint64 {
	r := rng.New(0xC0441EC7)
	t := make([]uint64, 2*Cols*Rows+1)
	for i := range t {
		t[i] = r.Uint64()
	}
	return t
}()

// Game is the Connect Four factory.
type Game struct{}

// New returns the game.
func New() *Game { return &Game{} }

// Name implements game.Game.
func (*Game) Name() string { return "connect4" }

// NumActions implements game.Game. Actions are column drops.
func (*Game) NumActions() int { return Cols }

// EncodedShape implements game.Game.
func (*Game) EncodedShape() (c, h, w int) { return Planes, Rows, Cols }

// MaxGameLength implements game.Game.
func (*Game) MaxGameLength() int { return Cols * Rows }

// NewInitial implements game.Game.
func (*Game) NewInitial() game.State {
	s := &State{toMove: game.P1, lastMove: -1}
	for c := range s.height {
		s.height[c] = 0
	}
	return s
}

// State is a Connect Four position. cells are stored row-major with row 0
// at the bottom.
type State struct {
	cells    [Rows * Cols]game.Player
	height   [Cols]int
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
	for c := 0; c < Cols; c++ {
		if s.height[c] < Rows {
			dst = append(dst, c)
		}
	}
	return dst
}

// Legal implements game.State.
func (s *State) Legal(action int) bool {
	return !s.done && action >= 0 && action < Cols && s.height[action] < Rows
}

// Play implements game.State. The action is a column index.
func (s *State) Play(action int) {
	if !s.Legal(action) {
		panic("connect4: illegal move")
	}
	p := s.toMove
	row := s.height[action]
	cell := row*Cols + action
	s.cells[cell] = p
	s.height[action]++
	side := 0
	if p == game.P2 {
		side = 1
	}
	s.hash ^= zobristTab[side*Rows*Cols+cell]
	s.hash ^= zobristTab[len(zobristTab)-1]
	s.lastMove = cell
	s.moves++
	if s.winsAt(row, action, p) {
		s.winner = p
		s.done = true
	} else if s.moves == Rows*Cols {
		s.done = true
	}
	s.toMove = p.Opponent()
}

func (s *State) winsAt(row, col int, p game.Player) bool {
	dirs := [4][2]int{{0, 1}, {1, 0}, {1, 1}, {1, -1}}
	for _, d := range dirs {
		count := 1
		for sign := -1; sign <= 1; sign += 2 {
			r, c := row, col
			for {
				r += sign * d[0]
				c += sign * d[1]
				if r < 0 || r >= Rows || c < 0 || c >= Cols || s.cells[r*Cols+c] != p {
					break
				}
				count++
			}
		}
		if count >= 4 {
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
func (s *State) NumActions() int { return Cols }

// EncodedShape implements game.State.
func (s *State) EncodedShape() (c, h, w int) { return Planes, Rows, Cols }

// Encode implements game.State (same plane layout as gomoku).
func (s *State) Encode(dst []float32) {
	n := Rows * Cols
	if len(dst) != Planes*n {
		panic("connect4: Encode buffer has wrong length")
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

// String renders the board, top row first.
func (s *State) String() string {
	var sb strings.Builder
	for r := Rows - 1; r >= 0; r-- {
		for c := 0; c < Cols; c++ {
			switch s.cells[r*Cols+c] {
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
