// Package hex implements the connection game Hex on an NxN rhombus. P1
// (vertical) wins by connecting the top and bottom edges, P2 (horizontal)
// by connecting the left and right edges; the Hex theorem guarantees a full
// board contains exactly one winning chain, so the game NEVER draws — the
// opposite outcome topology from the placement games, which exercises the
// Winner/Outcome plumbing with a guaranteed decisive result. Connectivity
// is tracked incrementally with a union-find over the stones plus four
// virtual edge nodes, so Terminal/Winner are O(1) reads.
//
// The optional pie (swap) rule is the steal variant: when enabled, the
// second player's first move may be played on P1's opening stone, replacing
// it with a P2 stone. The registry's "hex" entry plays without the swap
// rule; construct NewSwap explicitly to enable it.
package hex

import (
	"fmt"
	"strings"

	"github.com/parmcts/parmcts/internal/game"
)

// DefaultSize is the standard tournament board edge.
const DefaultSize = 11

// Planes is the number of input feature planes produced by Encode:
// own stones, opponent stones, last move, side-to-move indicator.
const Planes = 4

func init() {
	game.Register("hex", func(size int) (game.Game, error) {
		if size == 0 {
			size = DefaultSize
		}
		return newSized(size, false)
	})
}

// zobrist layout: [2*n*n cell keys][side-to-move key]. game.ZobristTable
// is synchronized and cached per size.
func zobrist(size int) []uint64 {
	return game.ZobristTable(0x4E8A60+uint64(size), 2*size*size+1)
}

// Game is the Hex game factory.
type Game struct {
	Size int
	// Swap enables the pie rule: the second player's first move may steal
	// P1's opening stone by playing on its cell.
	Swap bool
}

// New returns the standard 11x11 game without the swap rule.
func New() *Game { return &Game{Size: DefaultSize} }

// NewSized returns a game with a custom board edge in [2, 19].
func NewSized(size int) *Game {
	g, err := newSized(size, false)
	if err != nil {
		panic("hex: " + err.Error())
	}
	return g
}

// NewSwap returns a sized game with the pie rule enabled.
func NewSwap(size int) *Game {
	g, err := newSized(size, true)
	if err != nil {
		panic("hex: " + err.Error())
	}
	return g
}

func newSized(size int, swap bool) (*Game, error) {
	if size < 2 || size > 19 {
		return nil, fmt.Errorf("board edge must be in [2, 19], got %d", size)
	}
	return &Game{Size: size, Swap: swap}, nil
}

// Name implements game.Game.
func (g *Game) Name() string { return "hex" }

// NumActions implements game.Game.
func (g *Game) NumActions() int { return g.Size * g.Size }

// EncodedShape implements game.Game.
func (g *Game) EncodedShape() (c, h, w int) { return Planes, g.Size, g.Size }

// MaxGameLength implements game.Game: one ply per cell, plus one for the
// pie-rule steal when enabled (the steal consumes a ply without occupying a
// fresh cell).
func (g *Game) MaxGameLength() int {
	if g.Swap {
		return g.Size*g.Size + 1
	}
	return g.Size * g.Size
}

// NewInitial implements game.Game.
func (g *Game) NewInitial() game.State {
	n := g.Size
	s := &State{
		size:     n,
		swap:     g.Swap,
		cells:    make([]game.Player, n*n),
		uf:       make([]int32, n*n+4),
		toMove:   game.P1,
		lastMove: -1,
		zob:      zobrist(n),
	}
	for i := range s.uf {
		s.uf[i] = int32(i)
	}
	return s
}

// Virtual union-find nodes for the four board edges, stored after the
// cells: P1 owns top/bottom, P2 owns left/right.
const (
	ufTop = iota
	ufBottom
	ufLeft
	ufRight
)

// State is a Hex position.
type State struct {
	size     int
	swap     bool
	cells    []game.Player
	uf       []int32 // union-find parents: cells then the 4 edge nodes
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
	*s, s.cells, s.uf = *o, append(s.cells[:0], o.cells...), append(s.uf[:0], o.uf...)
}

// ToMove implements game.State.
func (s *State) ToMove() game.Player { return s.toMove }

// Size returns the board edge length.
func (s *State) Size() int { return s.size }

// Cell returns the occupant of (row, col).
func (s *State) Cell(row, col int) game.Player { return s.cells[row*s.size+col] }

// MoveCount returns the number of stones played (a steal counts as a move).
func (s *State) MoveCount() int { return s.moves }

// edgeNode maps the virtual edge constants to union-find indices.
func (s *State) edgeNode(e int) int32 { return int32(s.size*s.size + e) }

func (s *State) find(x int32) int32 {
	for s.uf[x] != x {
		s.uf[x] = s.uf[s.uf[x]] // path halving
		x = s.uf[x]
	}
	return x
}

func (s *State) union(a, b int32) {
	ra, rb := s.find(a), s.find(b)
	if ra != rb {
		s.uf[ra] = rb
	}
}

// hexNeighbors enumerates the six neighbours of (r, c) on the rhombus.
var hexNeighbors = [6][2]int{
	{-1, 0}, {-1, 1}, {0, -1}, {0, 1}, {1, -1}, {1, 0},
}

// stealAllowed reports whether action is the pie-rule steal: P2's first
// move played on P1's single opening stone.
func (s *State) stealAllowed(action int) bool {
	return s.swap && s.moves == 1 && s.toMove == game.P2 && s.cells[action] == game.P1
}

// LegalMoves implements game.State.
func (s *State) LegalMoves(dst []int) []int {
	if s.done {
		return dst
	}
	for i, c := range s.cells {
		if c == game.Nobody || s.stealAllowed(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Legal implements game.State.
func (s *State) Legal(action int) bool {
	if s.done || action < 0 || action >= len(s.cells) {
		return false
	}
	return s.cells[action] == game.Nobody || s.stealAllowed(action)
}

// Play implements game.State. Placing a stone unions it with same-colour
// neighbours and its own edges; the game ends as soon as the mover's two
// edges share a root. A pie-rule steal replaces P1's opening stone with a
// P2 stone (the trivial one-stone union-find is rebuilt).
func (s *State) Play(action int) {
	if !s.Legal(action) {
		panic("hex: illegal move")
	}
	p := s.toMove
	n := s.size
	if s.stealAllowed(action) {
		// Remove P1's stone from the hash, reset the one-stone union-find,
		// and fall through to a normal P2 placement on the freed cell.
		s.hash ^= s.zob[0*n*n+action]
		s.cells[action] = game.Nobody
		for i := range s.uf {
			s.uf[i] = int32(i)
		}
	}
	side := 0
	if p == game.P2 {
		side = 1
	}
	s.cells[action] = p
	s.hash ^= s.zob[side*n*n+action]
	s.hash ^= s.zob[len(s.zob)-1] // toggle side-to-move key
	s.lastMove = action
	s.moves++

	r, c := action/n, action%n
	for _, d := range hexNeighbors {
		nr, nc := r+d[0], c+d[1]
		if nr >= 0 && nr < n && nc >= 0 && nc < n && s.cells[nr*n+nc] == p {
			s.union(int32(action), int32(nr*n+nc))
		}
	}
	if p == game.P1 {
		if r == 0 {
			s.union(int32(action), s.edgeNode(ufTop))
		}
		if r == n-1 {
			s.union(int32(action), s.edgeNode(ufBottom))
		}
		if s.find(s.edgeNode(ufTop)) == s.find(s.edgeNode(ufBottom)) {
			s.winner = game.P1
			s.done = true
		}
	} else {
		if c == 0 {
			s.union(int32(action), s.edgeNode(ufLeft))
		}
		if c == n-1 {
			s.union(int32(action), s.edgeNode(ufRight))
		}
		if s.find(s.edgeNode(ufLeft)) == s.find(s.edgeNode(ufRight)) {
			s.winner = game.P2
			s.done = true
		}
	}
	s.toMove = p.Opponent()
}

// Terminal implements game.State.
func (s *State) Terminal() bool { return s.done }

// Winner implements game.State. Hex cannot draw: a terminal state always
// has a winner (Nobody only appears while the game is still running).
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
		panic("hex: Encode buffer has wrong length")
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

// AppendStateKey implements game.State: cell occupancy, the side to
// move, and whether the pie-rule steal is still live — the same board one
// ply later is a different position while the steal option exists, even
// though the cells and mover match.
func (s *State) AppendStateKey(dst []byte) []byte {
	for _, c := range s.cells {
		dst = append(dst, byte(c+1))
	}
	stealLive := byte(0)
	if s.swap && s.moves <= 1 {
		stealLive = 1
	}
	return append(dst, byte(s.toMove+1), stealLive)
}

// String renders the rhombus with the usual row indentation (X = P1
// connecting top-bottom, O = P2 connecting left-right).
func (s *State) String() string {
	var sb strings.Builder
	for r := 0; r < s.size; r++ {
		sb.WriteString(strings.Repeat(" ", r))
		for c := 0; c < s.size; c++ {
			switch s.cells[r*s.size+c] {
			case game.P1:
				sb.WriteByte('X')
			case game.P2:
				sb.WriteByte('O')
			default:
				sb.WriteByte('.')
			}
			if c < s.size-1 {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
