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
	"strings"

	"github.com/parmcts/parmcts/internal/game"
)

// DefaultSize is the standard board edge length.
const DefaultSize = 8

// Planes is the number of input feature planes produced by Encode:
// own discs, opponent discs, last placement, side-to-move indicator.
const Planes = 4

func init() {
	game.Register("othello", func(size int) (game.Game, error) {
		if size == 0 {
			size = DefaultSize
		}
		return newSized(size)
	})
}

// zobrist returns the per-size table (game.ZobristTable is synchronized —
// concurrent fleet drivers create first states on G goroutines at once).
// The layout is [2*n*n cell keys][side-to-move key][pass-streak key]: a
// pending single pass changes the position's identity (the same board with
// the same mover terminates one pass sooner), so it participates in the
// hash.
func zobrist(size int) []uint64 {
	return game.ZobristTable(0x07E110+uint64(size), 2*size*size+2)
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
func (g *Game) EncodedShape() (c, h, w int) { return Planes, g.Size, g.Size }

// MaxGameLength implements game.Game. Placements are bounded by the empty
// cells (n*n - 4) and passes are never consecutive except the terminal
// pair, so 2*n*n bounds any playable game with room to spare.
func (g *Game) MaxGameLength() int { return 2 * g.Size * g.Size }

// NewInitial implements game.Game: the four centre discs in the standard
// crosswise arrangement, dark (P1) to move.
func (g *Game) NewInitial() game.State {
	n := g.Size
	s := &State{
		size:     n,
		cells:    make([]game.Player, n*n),
		toMove:   game.P1,
		lastMove: -1,
		zob:      zobrist(n),
	}
	mid := n / 2
	s.place((mid-1)*n+mid-1, game.P2)
	s.place((mid-1)*n+mid, game.P1)
	s.place(mid*n+mid-1, game.P1)
	s.place(mid*n+mid, game.P2)
	return s
}

// place puts a disc during initial setup, maintaining hash and counts.
func (s *State) place(cell int, p game.Player) {
	s.cells[cell] = p
	s.hash ^= s.zob[sideIndex(p)*s.size*s.size+cell]
	if p == game.P1 {
		s.discsP1++
	} else {
		s.discsP2++
	}
}

func sideIndex(p game.Player) int {
	if p == game.P2 {
		return 1
	}
	return 0
}

// State is an Othello position.
type State struct {
	size     int
	cells    []game.Player
	toMove   game.Player
	lastMove int // action index of the previous ply (pass included), -1 at start
	moves    int // plies played, passes included
	passes   int // consecutive passes ending at the current position
	discsP1  int
	discsP2  int
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

// PassAction returns the action index of the explicit pass move.
func (s *State) PassAction() int { return s.size * s.size }

// MoveCount returns the number of plies played, passes included.
func (s *State) MoveCount() int { return s.moves }

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
	n := s.size
	r, c := cell/n, cell%n
	count := 0
	for {
		r += dr
		c += dc
		if r < 0 || r >= n || c < 0 || c >= n {
			return 0
		}
		switch s.cells[r*n+c] {
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
	if s.cells[cell] != game.Nobody {
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
	for cell, occ := range s.cells {
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
	if s.done {
		return dst
	}
	start := len(dst)
	for cell, occ := range s.cells {
		if occ == game.Nobody && s.placementLegal(cell, s.toMove) {
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
	if s.done || action < 0 || action > s.PassAction() {
		return false
	}
	if action == s.PassAction() {
		return !s.hasPlacement(s.toMove)
	}
	return s.placementLegal(action, s.toMove)
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
	p := s.toMove
	n2 := s.size * s.size
	sideKey := s.zob[2*n2]
	streakKey := s.zob[2*n2+1]

	if action == s.PassAction() {
		if s.passes == 0 {
			s.hash ^= streakKey
		}
		s.passes++
		if s.passes >= 2 {
			s.done = true
			s.setWinnerByCount()
		}
	} else {
		me, opp := sideIndex(p), sideIndex(p.Opponent())
		s.cells[action] = p
		s.hash ^= s.zob[me*n2+action]
		gained := 1
		for _, d := range dirs {
			k := s.flipsInDir(action, p, d[0], d[1])
			r, c := action/s.size, action%s.size
			for i := 1; i <= k; i++ {
				cell := (r+i*d[0])*s.size + (c + i*d[1])
				s.cells[cell] = p
				s.hash ^= s.zob[opp*n2+cell]
				s.hash ^= s.zob[me*n2+cell]
				gained++
			}
		}
		flipped := gained - 1
		if p == game.P1 {
			s.discsP1 += flipped + 1
			s.discsP2 -= flipped
		} else {
			s.discsP2 += flipped + 1
			s.discsP1 -= flipped
		}
		if s.passes == 1 {
			s.hash ^= streakKey
		}
		s.passes = 0
	}
	s.hash ^= sideKey
	s.lastMove = action
	s.moves++
	s.toMove = p.Opponent()
}

func (s *State) setWinnerByCount() {
	switch {
	case s.discsP1 > s.discsP2:
		s.winner = game.P1
	case s.discsP2 > s.discsP1:
		s.winner = game.P2
	default:
		s.winner = game.Nobody
	}
}

// Terminal implements game.State.
func (s *State) Terminal() bool { return s.done }

// Winner implements game.State.
func (s *State) Winner() game.Player { return s.winner }

// NumActions implements game.State.
func (s *State) NumActions() int { return s.size*s.size + 1 }

// EncodedShape implements game.State.
func (s *State) EncodedShape() (c, h, w int) { return Planes, s.size, s.size }

// Encode implements game.State. Planes (from the mover's perspective):
//
//	0: discs of the player to move
//	1: discs of the opponent
//	2: one-hot last placement (empty after a pass or at the start)
//	3: all-ones if the player to move is P1, else zeros
func (s *State) Encode(dst []float32) {
	n := s.size * s.size
	if len(dst) != Planes*n {
		panic("othello: Encode buffer has wrong length")
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
	if s.lastMove >= 0 && s.lastMove < n {
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

// AppendStateKey implements game.State: cell occupancy, the side to
// move, and the pending-pass indicator — the same identity the Zobrist
// hash covers (a position reached with one pass already on the streak
// terminates one pass sooner than the same board without it).
func (s *State) AppendStateKey(dst []byte) []byte {
	for _, c := range s.cells {
		dst = append(dst, byte(c+1))
	}
	pending := byte(0)
	if s.passes > 0 {
		pending = 1
	}
	return append(dst, byte(s.toMove+1), pending)
}

// String renders the board for debugging (X = P1 dark, O = P2 light).
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
