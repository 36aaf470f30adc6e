package gomoku

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
)

func TestInitialState(t *testing.T) {
	g := New()
	s := g.NewInitial()
	if s.Terminal() {
		t.Fatal("initial state terminal")
	}
	if s.ToMove() != game.P1 {
		t.Fatal("P1 should move first")
	}
	moves := s.LegalMoves(nil)
	if len(moves) != 225 {
		t.Fatalf("legal moves = %d, want 225", len(moves))
	}
	if g.NumActions() != 225 || g.MaxGameLength() != 225 {
		t.Error("metadata wrong")
	}
	c, h, w := g.EncodedShape()
	if c != 4 || h != 15 || w != 15 {
		t.Errorf("shape = %d,%d,%d", c, h, w)
	}
}

func TestNewSizedRejectsTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSized(3) did not panic")
		}
	}()
	NewSized(3)
}

func TestHorizontalWin(t *testing.T) {
	g := NewSized(7)
	s := g.NewInitial().(*State)
	// P1 plays row 0 cols 0..4; P2 plays row 6.
	for i := 0; i < 4; i++ {
		s.Play(i)       // P1
		s.Play(6*7 + i) // P2
	}
	s.Play(4) // fifth in a row
	if !s.Terminal() || s.Winner() != game.P1 {
		t.Fatalf("expected P1 win, terminal=%v winner=%v\n%s", s.Terminal(), s.Winner(), s)
	}
}

func TestVerticalAndDiagonalWins(t *testing.T) {
	dirs := []struct {
		name string
		move func(i int) (r, c int)
	}{
		{"vertical", func(i int) (int, int) { return i, 0 }},
		{"diag", func(i int) (int, int) { return i, i }},
		{"antidiag", func(i int) (int, int) { return i, 6 - i }},
	}
	for _, d := range dirs {
		g := NewSized(7)
		s := g.NewInitial().(*State)
		for i := 0; i < 4; i++ {
			r, c := d.move(i)
			s.Play(r*7 + c)
			s.Play(6*7 + 6 - i) // P2 filler on top row
		}
		r, c := d.move(4)
		s.Play(r*7 + c)
		if !s.Terminal() || s.Winner() != game.P1 {
			t.Errorf("%s: expected P1 win\n%s", d.name, s)
		}
	}
}

func TestP2CanWin(t *testing.T) {
	g := NewSized(7)
	s := g.NewInitial().(*State)
	// P1 scatters, P2 builds row 3.
	fill := []int{0, 1, 2, 3, 5}
	for i := 0; i < 5; i++ {
		s.Play(fill[i]) // P1 (row 0, skipping a five-in-a-row)
		s.Play(3*7 + i) // P2
		if s.Terminal() {
			break
		}
	}
	if s.Winner() != game.P2 {
		t.Fatalf("expected P2 win, got %v\n%s", s.Winner(), s)
	}
}

func TestNoFalseWin(t *testing.T) {
	g := NewSized(7)
	s := g.NewInitial().(*State)
	// Four in a row only — must not be terminal.
	for i := 0; i < 4; i++ {
		s.Play(i)
		s.Play(6*7 + i)
	}
	if s.Terminal() {
		t.Fatal("four in a row should not end the game")
	}
}

func TestDrawOnFullBoard(t *testing.T) {
	// Play a 5x5 board to exhaustion with a pattern that avoids 5-in-a-row:
	// column permutation pattern rows of XXOOX etc. Simplest: verify with
	// random playouts that a finished game is either a win or a full-board
	// draw, and draws report Nobody.
	r := rng.New(77)
	g := NewSized(5)
	for trial := 0; trial < 200; trial++ {
		s := g.NewInitial().(*State)
		var buf []int
		for !s.Terminal() {
			buf = s.LegalMoves(buf[:0])
			s.Play(buf[r.Intn(len(buf))])
		}
		if s.Winner() == game.Nobody && s.Moves != 25 {
			t.Fatal("draw declared before board full")
		}
		if s.Winner() != game.Nobody {
			// terminal with a winner: last mover is the winner
			if s.ToMove() == s.Winner() {
				t.Fatal("winner should be the player who just moved")
			}
		}
	}
}

func TestIllegalMovePanics(t *testing.T) {
	g := New()
	s := g.NewInitial()
	s.Play(0)
	defer func() {
		if recover() == nil {
			t.Fatal("occupied-cell move did not panic")
		}
	}()
	s.Play(0)
}

func TestMovesAfterTerminalAreEmpty(t *testing.T) {
	g := NewSized(7)
	s := g.NewInitial().(*State)
	for i := 0; i < 4; i++ {
		s.Play(i)
		s.Play(6*7 + i)
	}
	s.Play(4)
	if got := s.LegalMoves(nil); len(got) != 0 {
		t.Fatalf("terminal state reports %d legal moves", len(got))
	}
	if s.Legal(10) {
		t.Fatal("Legal should be false after terminal")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New()
	s := g.NewInitial().(*State)
	s.Play(112)
	c := s.Clone().(*State)
	c.Play(113)
	if s.Moves != 1 || c.Moves != 2 {
		t.Fatal("clone shares state")
	}
	if s.Cells[7*15+8] != game.Nobody {
		t.Fatal("clone mutation leaked into parent")
	}
}

func TestHashTransposition(t *testing.T) {
	// Same position reached by different move orders hashes equally.
	g := New()
	a := g.NewInitial()
	b := g.NewInitial()
	a.Play(0)
	a.Play(50)
	a.Play(1)
	b.Play(1)
	b.Play(50)
	b.Play(0)
	// Note: lastMove differs (1 vs 0) but the zobrist hash intentionally
	// tracks only stone placement + side, so hashes must match.
	if a.Hash() != b.Hash() {
		t.Fatal("transposed positions hash differently")
	}
	c := g.NewInitial()
	c.Play(0)
	if c.Hash() == a.Hash() {
		t.Fatal("different positions hash equal")
	}
}

func TestHashSideToMove(t *testing.T) {
	g := New()
	a := g.NewInitial()
	if a.Hash() == func() uint64 { s := g.NewInitial(); s.Play(0); return s.Hash() }() {
		t.Fatal("hash ignores moves")
	}
}

func TestEncodePerspective(t *testing.T) {
	g := NewSized(5)
	s := g.NewInitial().(*State)
	s.Play(0) // P1 at 0
	n := 25
	enc := make([]float32, 4*n)
	s.Encode(enc)
	// Now P2 to move: plane 0 = P2 stones (none), plane 1 = P1 stones.
	if enc[0] != 0 {
		t.Error("plane 0 should be empty for P2")
	}
	if enc[n+0] != 1 {
		t.Error("plane 1 should contain P1's stone")
	}
	if enc[2*n+0] != 1 {
		t.Error("plane 2 should mark last move")
	}
	for i := 0; i < n; i++ {
		if enc[3*n+i] != 0 {
			t.Fatal("plane 3 should be zeros when P2 to move")
		}
	}
	s.Play(1) // P2 at 1; back to P1
	s.Encode(enc)
	if enc[0] != 1 || enc[n+1] != 1 || enc[3*n] != 1 {
		t.Error("perspective encoding wrong after second move")
	}
}

func TestEncodeBufferLengthPanics(t *testing.T) {
	g := New()
	s := g.NewInitial()
	defer func() {
		if recover() == nil {
			t.Fatal("short Encode buffer did not panic")
		}
	}()
	s.Encode(make([]float32, 10))
}

func TestRandomPlayoutsInvariants(t *testing.T) {
	r := rng.New(99)
	g := New()
	if err := quick.Check(func(seed uint64) bool {
		rr := rng.New(seed)
		s := g.NewInitial().(*State)
		var buf []int
		plies := 0
		for !s.Terminal() && plies < 225 {
			buf = s.LegalMoves(buf[:0])
			if len(buf) != 225-plies {
				return false
			}
			mv := buf[rr.Intn(len(buf))]
			if !s.Legal(mv) {
				return false
			}
			before := s.ToMove()
			s.Play(mv)
			if !s.Terminal() && s.ToMove() == before {
				return false
			}
			plies++
		}
		return s.Terminal() || plies == 225
	}, &quick.Config{MaxCount: 20, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestSymmetryIndexIsPermutation(t *testing.T) {
	for sym := 0; sym < NumSymmetries; sym++ {
		seen := make(map[int]bool, 225)
		for idx := 0; idx < 225; idx++ {
			j := SymmetryIndex(sym, 15, idx)
			if j < 0 || j >= 225 || seen[j] {
				t.Fatalf("sym %d not a permutation at %d", sym, idx)
			}
			seen[j] = true
		}
	}
}

func TestInverseSymmetry(t *testing.T) {
	for sym := 0; sym < NumSymmetries; sym++ {
		inv := InverseSymmetry(sym)
		for idx := 0; idx < 225; idx += 13 {
			if got := SymmetryIndex(inv, 15, SymmetryIndex(sym, 15, idx)); got != idx {
				t.Fatalf("inverse of sym %d wrong: idx %d -> %d", sym, idx, got)
			}
		}
	}
}

func TestSymmetryPolicyMassPreserved(t *testing.T) {
	r := rng.New(31)
	src := make([]float32, 225)
	var sum float32
	for i := range src {
		src[i] = r.Float32()
		sum += src[i]
	}
	for sym := 0; sym < NumSymmetries; sym++ {
		dst := make([]float32, 225)
		ApplySymmetryPolicy(dst, src, sym, 15)
		var got float32
		for _, v := range dst {
			got += v
		}
		if math.Abs(float64(got-sum)) > 1e-3 {
			t.Errorf("sym %d lost mass: %v vs %v", sym, got, sum)
		}
	}
}

func TestSymmetryPlanesConsistentWithPolicy(t *testing.T) {
	// Transforming the encoding planes and the policy with the same symmetry
	// must keep them aligned: the stone plane equals the policy one-hot.
	g := NewSized(7)
	s := g.NewInitial().(*State)
	s.Play(2*7 + 3)
	n := 49
	enc := make([]float32, 4*n)
	s.Encode(enc)
	policy := make([]float32, n)
	policy[2*7+3] = 1
	for sym := 0; sym < NumSymmetries; sym++ {
		encT := make([]float32, 4*n)
		polT := make([]float32, n)
		ApplySymmetryPlanes(encT, enc, sym, 4, 7)
		ApplySymmetryPolicy(polT, policy, sym, 7)
		for i := 0; i < n; i++ {
			if encT[n+i] != polT[i] { // plane 1 holds P1's stone (P2 to move)
				t.Fatalf("sym %d misaligned at %d", sym, i)
			}
		}
	}
}

func BenchmarkPlayClone(b *testing.B) {
	g := New()
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := g.NewInitial().(*State)
		var buf []int
		for j := 0; j < 30 && !s.Terminal(); j++ {
			buf = s.LegalMoves(buf[:0])
			s.Play(buf[r.Intn(len(buf))])
			_ = s.Clone()
		}
	}
}
