// Package othello implements Reversi/Othello (8x8 by default). It is the
// repository's first scenario whose move dynamics go beyond stone
// placement: playing a disc flips every bracketed opponent line, a player
// with no placement must play an explicit PASS action, and two consecutive
// passes end the game with the disc count deciding the winner. The pass
// action stresses exactly the invariants the persistent-session layer
// assumes ("warm root children == legal moves"): a forced-pass position has
// a single-child root, and every game ends through the pass path.
package othello

import (
	"fmt"

	"github.com/parmcts/parmcts/internal/game"
)

// DefaultSize is the standard board edge length.
const DefaultSize = 8

func init() {
	game.Register("othello", func(size int) (game.Game, error) {
		if size == 0 {
			size = DefaultSize
		}
		return newSized(size)
	})
}

// Game is the Othello game factory.
type Game struct {
	Size int
}

// New returns the standard 8x8 game.
func New() *Game { return &Game{Size: DefaultSize} }

// NewSized returns a game with a custom even board edge in [4, 16] — small
// boards keep conformance and fuzz runs fast.
func NewSized(size int) *Game {
	g, err := newSized(size)
	if err != nil {
		panic("othello: " + err.Error())
	}
	return g
}

func newSized(size int) (*Game, error) {
	if size < 4 || size > 16 || size%2 != 0 {
		return nil, fmt.Errorf("board edge must be even and in [4, 16], got %d", size)
	}
	return &Game{Size: size}, nil
}

// Name implements game.Game.
func (g *Game) Name() string { return "othello" }

// NumActions implements game.Game: one action per cell plus the pass action.
func (g *Game) NumActions() int { return g.Size*g.Size + 1 }

// PassAction returns the action index of the explicit pass move.
func (g *Game) PassAction() int { return g.Size * g.Size }

// EncodedShape implements game.Game.
func (g *Game) EncodedShape() (c, h, w int) { return game.Planes, g.Size, g.Size }

// MaxGameLength implements game.Game. Placements are bounded by the empty
// cells (n*n - 4) and passes are never consecutive except the terminal
// pair, so 2*n*n bounds any playable game with room to spare.
func (g *Game) MaxGameLength() int { return 2 * g.Size * g.Size }

// NewInitial implements game.Game: the four centre discs in the standard
// crosswise arrangement, dark (P1) to move. The board carries one extra
// hash key, the pass streak: a pending single pass changes the position's
// identity (the same board with the same mover terminates one pass
// sooner).
func (g *Game) NewInitial() game.State {
	n := g.Size
	s := &State{Board: game.NewBoard(n, n, 0x07E110+uint64(n), 1)}
	mid := n / 2
	s.place((mid-1)*n+mid-1, game.P2)
	s.place((mid-1)*n+mid, game.P1)
	s.place(mid*n+mid-1, game.P1)
	s.place(mid*n+mid, game.P2)
	return s
}

// place puts a disc during initial setup, maintaining hash and counts.
func (s *State) place(cell int, p game.Player) {
	s.Set(cell, p)
	if p == game.P1 {
		s.discsP1++
	} else {
		s.discsP2++
	}
}

// State is an Othello position. Its LastMove is the previous ply's action,
// pass included, and its Moves count passes.
type State struct {
	game.Board
	passes  int // consecutive passes ending at the current position
	discsP1 int
	discsP2 int
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

// PassAction returns the action index of the explicit pass move.
func (s *State) PassAction() int { return len(s.Cells) }

// Discs returns the disc counts for P1 and P2.
func (s *State) Discs() (p1, p2 int) { return s.discsP1, s.discsP2 }

var dirs = [8][2]int{
	{-1, -1}, {-1, 0}, {-1, 1},
	{0, -1}, {0, 1},
	{1, -1}, {1, 0}, {1, 1},
}

// flipsInDir returns the number of opponent discs bracketed from cell in
// one direction, or 0 when the line is not closed by one of p's discs.
func (s *State) flipsInDir(cell int, p game.Player, dr, dc int) int {
	n := s.Width
	r, c := cell/n, cell%n
	count := 0
	for {
		r += dr
		c += dc
		if r < 0 || r >= n || c < 0 || c >= n {
			return 0
		}
		switch s.Cells[r*n+c] {
		case p.Opponent():
			count++
		case p:
			return count
		default:
			return 0
		}
	}
}

// placementLegal reports whether p may place a disc on cell.
func (s *State) placementLegal(cell int, p game.Player) bool {
	if s.Cells[cell] != game.Nobody {
		return false
	}
	for _, d := range dirs {
		if s.flipsInDir(cell, p, d[0], d[1]) > 0 {
			return true
		}
	}
	return false
}

// hasPlacement reports whether p has any legal disc placement.
func (s *State) hasPlacement(p game.Player) bool {
	for cell, occ := range s.Cells {
		if occ == game.Nobody && s.placementLegal(cell, p) {
			return true
		}
	}
	return false
}

// LegalMoves implements game.State: every legal placement, or the single
// PASS action when the mover has none. The list is never empty before the
// game ends — pass is an explicit move, not an empty action set.
func (s *State) LegalMoves(dst []int) []int {
	if s.Terminal() {
		return dst
	}
	start := len(dst)
	for cell, occ := range s.Cells {
		if occ == game.Nobody && s.placementLegal(cell, s.ToMove()) {
			dst = append(dst, cell)
		}
	}
	if len(dst) == start {
		dst = append(dst, s.PassAction())
	}
	return dst
}

// Legal implements game.State. Pass is legal exactly when the mover has no
// placement.
func (s *State) Legal(action int) bool {
	if s.Terminal() || action < 0 || action > s.PassAction() {
		return false
	}
	if action == s.PassAction() {
		return !s.hasPlacement(s.ToMove())
	}
	return s.placementLegal(action, s.ToMove())
}

// Play implements game.State. A placement flips every bracketed line; a
// pass flips nothing and the second consecutive pass ends the game with the
// disc count deciding the winner (equal counts draw). A full board or a
// wiped-out colour terminates through the same double-pass path, since
// neither player can place.
func (s *State) Play(action int) {
	if !s.Legal(action) {
		panic("othello: illegal move")
	}
	p := s.ToMove()
	if action == s.PassAction() {
		if s.passes == 0 {
			s.ToggleKey(0)
		}
		s.passes++
		if s.passes >= 2 {
			s.Finish(s.countWinner())
		}
	} else {
		s.Set(action, p)
		flipped := 0
		r, c := action/s.Width, action%s.Width
		for _, d := range dirs {
			k := s.flipsInDir(action, p, d[0], d[1])
			for i := 1; i <= k; i++ {
				s.Set((r+i*d[0])*s.Width+c+i*d[1], p)
			}
			flipped += k
		}
		if p == game.P1 {
			s.discsP1 += flipped + 1
			s.discsP2 -= flipped
		} else {
			s.discsP2 += flipped + 1
			s.discsP1 -= flipped
		}
		if s.passes == 1 {
			s.ToggleKey(0)
		}
		s.passes = 0
	}
	s.EndTurn(action)
}

func (s *State) countWinner() game.Player {
	switch {
	case s.discsP1 > s.discsP2:
		return game.P1
	case s.discsP2 > s.discsP1:
		return game.P2
	default:
		return game.Nobody
	}
}

// NumActions implements game.State.
func (s *State) NumActions() int { return len(s.Cells) + 1 }

// AppendStateKey implements game.State: the board's key and the
// pending-pass indicator, the same identity the hash covers.
func (s *State) AppendStateKey(dst []byte) []byte {
	pending := byte(0)
	if s.passes > 0 {
		pending = 1
	}
	return append(s.Board.AppendStateKey(dst), pending)
}
