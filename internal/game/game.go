// Package game defines the environment interface consumed by the MCTS
// engines, mirroring the paper's "high-level libraries for simulating
// various benchmarks" integration point. Concrete games live in
// sub-packages and register themselves in the catalogue (Register /
// New / NewFromSpec / Names): gomoku is the paper's benchmark; connect4
// and tictactoe exercise the same interface at different fanouts/depths;
// othello adds flip dynamics with explicit pass moves; hex adds a
// draw-free connection topology. Importing internal/game/games links the
// full set.
//
// Two contract points the engines rely on (enforced for every registered
// game by internal/game/gametest): turns strictly alternate — a player
// with nothing to place must expose an explicit pass ACTION rather than
// an empty LegalMoves, because tree.Backup negates the value exactly once
// per ply — and a non-terminal state always has at least one legal move.
//
// Every game's State embeds one Board and keeps only its rules. The Board
// holds the cells, the mover, the last move, the ply count, the result and
// the Zobrist hash, and it provides ToMove, Terminal, Winner, Hash, Encode,
// EncodedShape, AppendStateKey and String. A game adds:
//   - Legal, LegalMoves, Play, NumActions, Clone, and CopyFrom, which
//     copies the cells into the receiver's own slice;
//   - in Play, a Set per changed cell, then EndTurn, then Finish when the
//     game is over;
//   - any state beyond the cells (Connect Four's column heights, Hex's
//     union-find, Othello's pass streak and disc counts), copied in
//     CopyFrom;
//   - for state that changes a position's identity, an extra hash key
//     (ToggleKey) and one extra byte after the Board's AppendStateKey.
//
// The hash table for n cells is ZobristTable(seed, 2n+1+extra): P1's key
// for cell i at i, P2's at n+i, the side-to-move key at 2n, then the
// extras. Encode writes Planes planes, and the last-move plane marks the
// last action only when it was a cell, so a pass leaves it empty.
package game

// Player identifies a side. Two-player zero-sum games use +1 and -1 so a
// value from one player's perspective is negated by multiplying by -1.
type Player int8

// Player constants.
const (
	Nobody Player = 0  // empty cell / no winner (draw or game in progress)
	P1     Player = 1  // first mover
	P2     Player = -1 // second mover
)

// Opponent returns the other player.
func (p Player) Opponent() Player { return -p }

// Glyph renders an occupant: X for P1, O for P2, '.' for an empty cell.
func (p Player) Glyph() byte { return "O.X"[p+1] }

// State is a mutable game position, NOT safe for concurrent mutation: each
// rollout context of an engine owns one and copies the root into it,
// exactly as Algorithm 2 line 2 copies the environment.
type State interface {
	// Clone returns an independent deep copy.
	Clone() State

	// CopyFrom makes the receiver a deep copy of src, a state of the same
	// game, in the receiver's storage: Clone without the allocation.
	CopyFrom(src State)

	// ToMove returns the player whose turn it is.
	ToMove() Player

	// LegalMoves appends the legal action indices to dst and returns it.
	// Action indices are in [0, NumActions()).
	LegalMoves(dst []int) []int

	// Legal reports whether the single action is legal in this state.
	Legal(action int) bool

	// Play applies an action. It panics on illegal actions; engines only
	// play actions obtained from LegalMoves or Legal.
	Play(action int)

	// Terminal reports whether the game has ended.
	Terminal() bool

	// Winner returns the winning player, or Nobody for a draw or an
	// unfinished game.
	Winner() Player

	// NumActions returns the size of the (fixed) action space.
	NumActions() int

	// Encode writes the network input planes for the position into dst,
	// which must have length C*H*W per EncodedShape. The encoding is
	// always from the perspective of the player to move.
	Encode(dst []float32)

	// EncodedShape returns the (channels, height, width) of Encode output.
	EncodedShape() (c, h, w int)

	// Hash returns a position hash (Zobrist) suitable for transposition
	// detection and test assertions.
	Hash() uint64

	// AppendStateKey appends a key covering exactly what Hash covers (cells,
	// side to move, extras such as Othello's pass streak); the transposition
	// table compares keys on every hash hit, so a collision never merges two
	// positions. The last-move plane is left out: transposed lines share one
	// evaluation, the standard table approximation.
	AppendStateKey(dst []byte) []byte
}

// Game is a factory for initial states plus static metadata.
type Game interface {
	Name() string
	NewInitial() State
	NumActions() int
	EncodedShape() (c, h, w int)
	// MaxGameLength bounds the number of plies in any playable game,
	// used to size replay buffers and synthetic-tree depth limits.
	MaxGameLength() int
}

// Outcome converts a winner into a scalar reward from the perspective of
// the given player: +1 win, -1 loss, 0 draw.
func Outcome(winner, perspective Player) float64 {
	switch {
	case winner == Nobody:
		return 0
	case winner == perspective:
		return 1
	default:
		return -1
	}
}
