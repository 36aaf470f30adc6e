package connect4

import (
	"testing"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
)

func TestGravity(t *testing.T) {
	g := New()
	s := g.NewInitial().(*State)
	s.Play(3) // P1 bottom of col 3
	s.Play(3) // P2 stacks on top
	if s.Cells[0*Cols+3] != game.P1 {
		t.Error("first drop should land at row 0")
	}
	if s.Cells[1*Cols+3] != game.P2 {
		t.Error("second drop should stack at row 1")
	}
}

func TestColumnFillsUp(t *testing.T) {
	g := New()
	s := g.NewInitial().(*State)
	for i := 0; i < Rows; i++ {
		s.Play(0)
	}
	if s.Legal(0) {
		t.Fatal("full column should be illegal")
	}
	moves := s.LegalMoves(nil)
	if len(moves) != Cols-1 {
		t.Fatalf("legal moves = %d, want %d", len(moves), Cols-1)
	}
}

func TestVerticalWin(t *testing.T) {
	g := New()
	s := g.NewInitial().(*State)
	for i := 0; i < 3; i++ {
		s.Play(0) // P1
		s.Play(1) // P2
	}
	s.Play(0) // P1 fourth
	if !s.Terminal() || s.Winner() != game.P1 {
		t.Fatalf("expected P1 vertical win:\n%s", s)
	}
}

func TestHorizontalWin(t *testing.T) {
	g := New()
	s := g.NewInitial().(*State)
	for i := 0; i < 3; i++ {
		s.Play(i) // P1 bottom row
		s.Play(i) // P2 stacks above
	}
	s.Play(3)
	if !s.Terminal() || s.Winner() != game.P1 {
		t.Fatalf("expected P1 horizontal win:\n%s", s)
	}
}

func TestDiagonalWin(t *testing.T) {
	g := New()
	s := g.NewInitial().(*State)
	// Build a / diagonal for P1 at (0,0),(1,1),(2,2),(3,3).
	plays := []int{0, 1, 1, 2, 2, 3, 2, 3, 3, 5, 3}
	for _, c := range plays {
		s.Play(c)
	}
	if !s.Terminal() || s.Winner() != game.P1 {
		t.Fatalf("expected P1 diagonal win:\n%s", s)
	}
}

func TestIllegalPanics(t *testing.T) {
	g := New()
	s := g.NewInitial()
	defer func() {
		if recover() == nil {
			t.Fatal("column 9 did not panic")
		}
	}()
	s.Play(9)
}

func TestRandomPlayoutInvariants(t *testing.T) {
	r := rng.New(5)
	g := New()
	for trial := 0; trial < 500; trial++ {
		s := g.NewInitial().(*State)
		var buf []int
		plies := 0
		for !s.Terminal() {
			buf = s.LegalMoves(buf[:0])
			if len(buf) == 0 {
				t.Fatal("non-terminal state with no moves")
			}
			s.Play(buf[r.Intn(len(buf))])
			plies++
			if plies > Rows*Cols {
				t.Fatal("game exceeded max length")
			}
		}
		if s.Winner() == game.Nobody && plies != Rows*Cols {
			t.Fatal("draw before board full")
		}
	}
}

func TestEncodeShape(t *testing.T) {
	g := New()
	s := g.NewInitial()
	c, h, w := s.EncodedShape()
	if c != game.Planes || h != Rows || w != Cols {
		t.Fatalf("shape %d,%d,%d", c, h, w)
	}
	enc := make([]float32, c*h*w)
	s.Play(3)
	s.Encode(enc)
	n := Rows * Cols
	if enc[n+3] != 1 { // P1 stone from P2's perspective
		t.Error("opponent plane missing stone")
	}
	if enc[2*n+3] != 1 {
		t.Error("last-move plane missing")
	}
}

func TestHashChangesPerMove(t *testing.T) {
	g := New()
	s := g.NewInitial()
	h0 := s.Hash()
	s.Play(0)
	h1 := s.Hash()
	s.Play(0)
	h2 := s.Hash()
	if h0 == h1 || h1 == h2 || h0 == h2 {
		t.Fatal("hash collisions across consecutive moves")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New()
	s := g.NewInitial().(*State)
	s.Play(0)
	c := s.Clone().(*State)
	c.Play(0)
	if s.height[0] != 1 || c.height[0] != 2 {
		t.Fatal("clone shares height array")
	}
}
