package hex

import (
	"testing"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/gametest"
	"github.com/parmcts/parmcts/internal/rng"
)

func TestConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Game
	}{
		{"hex-11", New()},
		{"hex-5", NewSized(5)},
		{"hex-2", NewSized(2)},
		{"hex-swap-5", NewSwap(5)},
	} {
		t.Run(tc.name, func(t *testing.T) { gametest.Run(t, tc.g) })
	}
}

func TestVerticalConnectionWinsP1(t *testing.T) {
	st := NewSized(3).NewInitial().(*State)
	for _, a := range []int{0 /*P1 (0,0)*/, 1 /*P2*/, 3 /*P1 (1,0)*/, 2 /*P2*/, 6 /*P1 (2,0)*/} {
		st.Play(a)
	}
	if !st.Terminal() || st.Winner() != game.P1 {
		t.Fatalf("terminal=%v winner=%d, want P1 win via left column", st.Terminal(), st.Winner())
	}
}

func TestHorizontalConnectionWinsP2(t *testing.T) {
	st := NewSized(3).NewInitial().(*State)
	// P2 builds row 2 (cells 6,7,8); P1 wastes moves on row 0 without
	// completing a chain (cells 0, 2 and then 4 — never three in a column).
	for _, a := range []int{0, 6, 2, 7, 4, 8} {
		st.Play(a)
	}
	if !st.Terminal() || st.Winner() != game.P2 {
		t.Fatalf("terminal=%v winner=%d, want P2 win via bottom row", st.Terminal(), st.Winner())
	}
}

// TestDiagonalAdjacency pins the rhombus topology: (r, c) touches
// (r+1, c-1) but not (r+1, c+1).
func TestDiagonalAdjacency(t *testing.T) {
	st := NewSized(3).NewInitial().(*State)
	// P1: (0,1)=1, (1,0)=3, (2,0)=6 — a staircase using the {1,-1} edge.
	for _, a := range []int{1, 5, 3, 8, 6} {
		st.Play(a)
	}
	if !st.Terminal() || st.Winner() != game.P1 {
		t.Fatalf("terminal=%v winner=%d, want P1 staircase win", st.Terminal(), st.Winner())
	}
	// Anti-diagonal (r+1, c+1) must NOT connect: on a 2x2 board, P1's
	// (0,0) top stone and (1,1) bottom stone share no edge, so placing
	// both does not end the game.
	st2 := NewSized(2).NewInitial().(*State)
	st2.Play(0) // P1 (0,0)
	st2.Play(1) // P2 (0,1)
	if st2.Terminal() {
		t.Fatal("premature terminal")
	}
	st2.Play(3) // P1 (1,1)
	if st2.Terminal() {
		t.Fatal("anti-diagonal cells must not be adjacent")
	}
}

// TestNeverDraws fills boards through seeded random playouts: every game
// must end with a winner strictly before the move budget runs out, and a
// full board is impossible without a prior connection (the Hex theorem).
func TestNeverDraws(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g := NewSized(4)
		st := g.NewInitial()
		r := rng.New(seed)
		plies := 0
		for !st.Terminal() {
			if plies >= g.MaxGameLength() {
				t.Fatalf("seed %d: board full without a connection", seed)
			}
			legal := st.LegalMoves(nil)
			st.Play(legal[r.Intn(len(legal))])
			plies++
		}
		if st.Winner() == game.Nobody {
			t.Fatalf("seed %d: hex game ended in a draw", seed)
		}
	}
}

// TestSwapRule covers the pie-rule steal variant: P2's first move may take
// P1's opening stone, converting it, and the game stays consistent after.
func TestSwapRule(t *testing.T) {
	g := NewSwap(5)
	st := g.NewInitial().(*State)
	centre := 2*5 + 2
	st.Play(centre) // P1 opens in the centre
	if !st.Legal(centre) {
		t.Fatal("swap game: P2 cannot steal the opening stone")
	}
	legal := st.LegalMoves(nil)
	if len(legal) != 25 {
		t.Fatalf("swap game: P2 has %d moves, want all 25 (24 empty + steal)", len(legal))
	}
	before := st.Hash()
	st.Play(centre) // steal
	if st.Cells[2*5+2] != game.P2 {
		t.Fatal("steal did not convert the stone to P2")
	}
	if st.Hash() == before {
		t.Fatal("steal left the hash unchanged")
	}
	if st.ToMove() != game.P1 || st.Moves != 2 {
		t.Fatalf("after steal: toMove=%d moves=%d", st.ToMove(), st.Moves)
	}
	// The steal window is one ply wide: P1 cannot steal back.
	if st.Legal(centre) {
		t.Fatal("occupied cell playable after the swap window closed")
	}
	// The stolen stone participates in P2's connectivity: complete row 2.
	for _, a := range []int{0, 2*5 + 0, 1, 2*5 + 1, 5, 2*5 + 3, 6, 2*5 + 4} {
		st.Play(a)
	}
	if !st.Terminal() || st.Winner() != game.P2 {
		t.Fatalf("terminal=%v winner=%d, want P2 row win through the stolen stone",
			st.Terminal(), st.Winner())
	}
}

// TestNoSwapByDefault pins that the registered variant plays without the
// pie rule: occupied cells are never legal.
func TestNoSwapByDefault(t *testing.T) {
	st := NewSized(5).NewInitial()
	centre := 2*5 + 2
	st.Play(centre)
	if st.Legal(centre) {
		t.Fatal("non-swap game allowed playing on an occupied cell")
	}
}

func TestSizeValidation(t *testing.T) {
	for _, bad := range []int{-1, 0, 1, 20} {
		if _, err := newSized(bad, false); err == nil {
			t.Errorf("size %d accepted", bad)
		}
	}
	if g := NewSwap(5); g.MaxGameLength() != 26 {
		t.Errorf("swap MaxGameLength = %d, want 26", g.MaxGameLength())
	}
}
