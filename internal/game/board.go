package game

import "strings"

// Planes is the number of input planes every game encodes: the mover's
// stones, the opponent's stones, the last placement, and an all-ones plane
// when P1 is to move.
const Planes = 4

// Board is the position every game shares: a grid of cells, the mover, the
// last move, the ply count, the result, and an incremental Zobrist hash. A
// game embeds it and adds only its rules, so ToMove, Terminal, Winner,
// Hash, Encode, EncodedShape, AppendStateKey and String are promoted into
// its game.State.
type Board struct {
	Cells    []Player // row-major, Width cells to a row; written only by Set
	Width    int
	LastMove int // the previous ply's action, -1 before the first
	Moves    int // plies played, this turn's included once EndTurn ran
	mover    Player
	winner   Player
	done     bool
	hash     uint64
	zob      []uint64
}

// NewBoard returns an empty width x height board with P1 to move. Its hash
// keys are ZobristTable(seed, 2n+1+extra) for n cells: P1's key for cell i
// at i, P2's at n+i, the side-to-move key at 2n, and the game's own extra
// keys from 2n+1 on (see ToggleKey).
func NewBoard(width, height int, seed uint64, extra int) Board {
	n := width * height
	return Board{
		Cells:    make([]Player, n),
		Width:    width,
		LastMove: -1,
		mover:    P1,
		zob:      ZobristTable(seed, 2*n+1+extra),
	}
}

// key is p's hash key on cell; p must not be Nobody.
func (b *Board) key(cell int, p Player) uint64 { return b.zob[int(1-p)/2*len(b.Cells)+cell] }

// Set puts p (or Nobody) on cell, moving the old occupant's key out of the
// hash and p's in: a placement, a flip and a steal are all one Set.
func (b *Board) Set(cell int, p Player) {
	if old := b.Cells[cell]; old != Nobody {
		b.hash ^= b.key(cell, old)
	}
	if p != Nobody {
		b.hash ^= b.key(cell, p)
	}
	b.Cells[cell] = p
}

// ToggleKey flips the game's extra hash key i in or out of the hash.
func (b *Board) ToggleKey(i int) { b.hash ^= b.zob[2*len(b.Cells)+1+i] }

// EndTurn closes a ply that played action: it toggles the side-to-move
// key, records the last move, counts the ply and hands the turn over.
func (b *Board) EndTurn(action int) {
	b.hash ^= b.zob[2*len(b.Cells)]
	b.LastMove = action
	b.Moves++
	b.mover = -b.mover
}

// Finish ends the game with winner, Nobody for a draw.
func (b *Board) Finish(winner Player) { b.done, b.winner = true, winner }

// lines are the four directions a row of stones can run in.
var lines = [4][2]int{{0, 1}, {1, 0}, {1, 1}, {1, -1}}

// InRow reports whether the stone on cell is one of k or more in a line.
// Call it after EndTurn. It assumes every ply placed one stone, so while
// Moves < 2k-1 no side can have k and it returns at once.
func (b *Board) InRow(cell, k int) bool {
	if b.Moves < 2*k-1 {
		return false
	}
	p, w, h := b.Cells[cell], b.Width, len(b.Cells)/b.Width
	row, col := cell/w, cell%w
	for _, d := range lines {
		count := 1
		for sign := -1; sign <= 1; sign += 2 {
			dr, dc := sign*d[0], sign*d[1]
			for r, c := row+dr, col+dc; r >= 0 && r < h && c >= 0 && c < w && b.Cells[r*w+c] == p; r, c = r+dr, c+dc {
				count++
			}
		}
		if count >= k {
			return true
		}
	}
	return false
}

// ToMove implements State.
func (b *Board) ToMove() Player { return b.mover }

// Terminal implements State.
func (b *Board) Terminal() bool { return b.done }

// Winner implements State.
func (b *Board) Winner() Player { return b.winner }

// Hash implements State: the cell keys, the side-to-move key and any extra
// keys toggled in.
func (b *Board) Hash() uint64 { return b.hash }

// EncodedShape implements State.
func (b *Board) EncodedShape() (c, h, w int) { return Planes, len(b.Cells) / b.Width, b.Width }

// Encode implements State with the Planes layout, from the mover's view.
// The last-move plane is set only when the last action was a cell, so a
// pass or the start leaves it empty.
func (b *Board) Encode(dst []float32) {
	n := len(b.Cells)
	if len(dst) != Planes*n {
		panic("game: Encode buffer has wrong length")
	}
	clear(dst)
	for i, c := range b.Cells {
		switch c {
		case b.mover:
			dst[i] = 1
		case -b.mover:
			dst[n+i] = 1
		}
	}
	if b.LastMove >= 0 && b.LastMove < n {
		dst[2*n+b.LastMove] = 1
	}
	if b.mover == P1 {
		for i := 3 * n; i < 4*n; i++ {
			dst[i] = 1
		}
	}
}

// AppendStateKey implements State for a game without extra keys: cell
// occupancy plus the side to move, exactly what the hash covers. A game
// with extra keys appends one byte for them.
func (b *Board) AppendStateKey(dst []byte) []byte {
	for _, c := range b.Cells {
		dst = append(dst, byte(c+1))
	}
	return append(dst, byte(b.mover+1))
}

// String renders the board row 0 first, one line per row.
func (b *Board) String() string {
	var sb strings.Builder
	for i, c := range b.Cells {
		sb.WriteByte(c.Glyph())
		if (i+1)%b.Width == 0 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
