package othello

import (
	"testing"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/gametest"
	"github.com/parmcts/parmcts/internal/rng"
)

func TestConformance(t *testing.T) {
	for _, g := range []*Game{New(), NewSized(4), NewSized(6)} {
		t.Run(g.Name()+"-sized", func(t *testing.T) { gametest.Run(t, g) })
	}
}

func TestInitialPosition(t *testing.T) {
	st := New().NewInitial().(*State)
	p1, p2 := st.Discs()
	if p1 != 2 || p2 != 2 {
		t.Fatalf("initial discs = %d/%d, want 2/2", p1, p2)
	}
	legal := st.LegalMoves(nil)
	want := []int{2*8 + 3, 3*8 + 2, 4*8 + 5, 5*8 + 4}
	if len(legal) != len(want) {
		t.Fatalf("initial legal moves = %v, want %v", legal, want)
	}
	for i := range want {
		if legal[i] != want[i] {
			t.Fatalf("initial legal moves = %v, want %v", legal, want)
		}
	}
	if st.Legal(st.PassAction()) {
		t.Fatal("pass must be illegal while placements exist")
	}
}

func TestFlipMechanics(t *testing.T) {
	st := New().NewInitial().(*State)
	// P1 plays (2,3): brackets the P2 disc at (3,3) against P1's (4,3).
	st.Play(2*8 + 3)
	if got := st.Cells[3*8+3]; got != game.P1 {
		t.Fatalf("disc at (3,3) = %d, want flipped to P1", got)
	}
	p1, p2 := st.Discs()
	if p1 != 4 || p2 != 1 {
		t.Fatalf("discs after first move = %d/%d, want 4/1", p1, p2)
	}
	if st.ToMove() != game.P2 {
		t.Fatal("turn did not pass to P2")
	}
}

// TestPassAndDoublePass drives seeded random playouts on small boards and
// checks the pass machinery wherever it fires: pass is offered exactly when
// no placement exists, a single pass keeps the game going, and every game
// terminates through a double pass with the disc count deciding the winner.
func TestPassAndDoublePass(t *testing.T) {
	passesSeen, gamesEnded := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		g := NewSized(4)
		st := g.NewInitial().(*State)
		r := rng.New(seed)
		prevWasPass := false
		for !st.Terminal() {
			legal := st.LegalMoves(nil)
			isPassTurn := len(legal) == 1 && legal[0] == st.PassAction()
			if isPassTurn != !st.hasPlacement(st.ToMove()) {
				t.Fatal("pass offered while placements exist (or withheld while none do)")
			}
			if isPassTurn {
				passesSeen++
			}
			a := legal[r.Intn(len(legal))]
			st.Play(a)
			if st.Terminal() {
				gamesEnded++
				// The only termination rule is the double pass.
				if a != st.PassAction() || !prevWasPass {
					t.Fatalf("seed %d: game ended without a double pass", seed)
				}
				p1, p2 := st.Discs()
				switch {
				case p1 > p2 && st.Winner() != game.P1:
					t.Fatalf("seed %d: winner %d with discs %d/%d", seed, st.Winner(), p1, p2)
				case p2 > p1 && st.Winner() != game.P2:
					t.Fatalf("seed %d: winner %d with discs %d/%d", seed, st.Winner(), p1, p2)
				case p1 == p2 && st.Winner() != game.Nobody:
					t.Fatalf("seed %d: drawish discs %d/%d but winner %d", seed, p1, p2, st.Winner())
				}
			}
			prevWasPass = a == st.PassAction()
		}
	}
	if passesSeen == 0 {
		t.Fatal("40 random 4x4 games never produced a forced pass; pass path untested")
	}
	if gamesEnded == 0 {
		t.Fatal("no games finished")
	}
}

// TestPassChangesHash pins the Zobrist treatment of passes: a pass flips no
// discs yet must still move the hash (side to move AND the pending-pass
// streak both change), and two same-board states that differ only in the
// pass streak hash differently.
func TestPassChangesHash(t *testing.T) {
	// Find a reachable forced-pass position on the 4x4 board.
	for seed := uint64(1); seed <= 60; seed++ {
		st := NewSized(4).NewInitial().(*State)
		r := rng.New(seed)
		for !st.Terminal() {
			legal := st.LegalMoves(nil)
			if legal[0] == st.PassAction() && len(legal) == 1 {
				before := st.Hash()
				passed := st.Clone().(*State)
				passed.Play(passed.PassAction())
				if passed.Hash() == before {
					t.Fatal("pass left the hash unchanged")
				}
				// The streak key is its own dimension: toggling only the
				// side key would collide with a no-pass transposition.
				sideOnly := before ^ game.ZobristTable(0x07E110+4, 2*16+2)[2*16]
				if passed.Hash() == sideOnly {
					t.Fatal("pass hashed identically to a plain side-to-move toggle")
				}
				return
			}
			st.Play(legal[r.Intn(len(legal))])
		}
	}
	t.Fatal("no forced-pass position found in 60 seeded games")
}

func TestSizeValidation(t *testing.T) {
	for _, bad := range []int{-2, 1, 2, 3, 5, 7, 18} {
		if _, err := newSized(bad); err == nil {
			t.Errorf("size %d accepted", bad)
		}
	}
	if g := NewSized(6); g.NumActions() != 37 || g.PassAction() != 36 {
		t.Errorf("6x6 actions/pass = %d/%d", g.NumActions(), g.PassAction())
	}
}
