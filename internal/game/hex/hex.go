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

func init() {
	game.Register("hex", func(size int) (game.Game, error) {
		if size == 0 {
			size = DefaultSize
		}
		return newSized(size, false)
	})
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
func (g *Game) EncodedShape() (c, h, w int) { return game.Planes, g.Size, g.Size }

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
		Board: game.NewBoard(n, n, 0x4E8A60+uint64(n), 0),
		swap:  g.Swap,
		uf:    make([]int32, n*n+4),
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

// State is a Hex position. A steal counts in Moves like any other ply.
type State struct {
	game.Board
	swap bool
	uf   []int32 // union-find parents: cells then the 4 edge nodes
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
	*s, s.Cells, s.uf = *o, append(s.Cells[:0], o.Cells...), append(s.uf[:0], o.uf...)
}

// edgeNode maps the virtual edge constants to union-find indices.
func (s *State) edgeNode(e int) int32 { return int32(len(s.Cells) + e) }

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
	return s.swap && s.Moves == 1 && s.ToMove() == game.P2 && s.Cells[action] == game.P1
}

// LegalMoves implements game.State.
func (s *State) LegalMoves(dst []int) []int {
	if s.Terminal() {
		return dst
	}
	for i, c := range s.Cells {
		if c == game.Nobody || s.stealAllowed(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Legal implements game.State.
func (s *State) Legal(action int) bool {
	if s.Terminal() || action < 0 || action >= len(s.Cells) {
		return false
	}
	return s.Cells[action] == game.Nobody || s.stealAllowed(action)
}

// Play implements game.State. Placing a stone unions it with same-colour
// neighbours and its own edges; the game ends as soon as the mover's two
// edges share a root. A pie-rule steal replaces P1's opening stone with a
// P2 stone (the trivial one-stone union-find is rebuilt).
func (s *State) Play(action int) {
	if !s.Legal(action) {
		panic("hex: illegal move")
	}
	p := s.ToMove()
	n := s.Width
	if s.stealAllowed(action) {
		for i := range s.uf {
			s.uf[i] = int32(i)
		}
	}
	s.Set(action, p)
	s.EndTurn(action)

	r, c := action/n, action%n
	for _, d := range hexNeighbors {
		nr, nc := r+d[0], c+d[1]
		if nr >= 0 && nr < n && nc >= 0 && nc < n && s.Cells[nr*n+nc] == p {
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
			s.Finish(game.P1)
		}
	} else {
		if c == 0 {
			s.union(int32(action), s.edgeNode(ufLeft))
		}
		if c == n-1 {
			s.union(int32(action), s.edgeNode(ufRight))
		}
		if s.find(s.edgeNode(ufLeft)) == s.find(s.edgeNode(ufRight)) {
			s.Finish(game.P2)
		}
	}
}

// NumActions implements game.State.
func (s *State) NumActions() int { return len(s.Cells) }

// AppendStateKey implements game.State: the board's key and whether the
// pie-rule steal is still live — the same board one ply later is a
// different position while the steal option exists, even though the cells
// and mover match.
func (s *State) AppendStateKey(dst []byte) []byte {
	stealLive := byte(0)
	if s.swap && s.Moves <= 1 {
		stealLive = 1
	}
	return append(s.Board.AppendStateKey(dst), stealLive)
}

// String renders the rhombus with the usual row indentation (X = P1
// connecting top-bottom, O = P2 connecting left-right).
func (s *State) String() string {
	var sb strings.Builder
	for r := 0; r < s.Width; r++ {
		sb.WriteString(strings.Repeat(" ", r))
		for c, p := range s.Cells[r*s.Width : (r+1)*s.Width] {
			if c > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteByte(p.Glyph())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
