// Package gametest is the exported conformance harness for game.Game
// implementations: one table of property checks that every scenario must
// pass before the search engines, the persistent-session layer, and the
// training drivers may assume anything about it. The properties pin down
// the parts of the game.State contract that the rest of the repository
// silently relies on — Clone independence, CopyFrom ≡ Clone into any
// receiver, Legal↔LegalMoves agreement, strict turn alternation
// (tree.Backup negates the value once per ply), the own/opponent plane
// convention of Encode, Zobrist hashes that change on every Play (pass
// moves included), the MaxGameLength bound that sizes replay buffers and
// synthetic-tree depth limits, terminal stability, and a rollout step
// (CopyFrom, Play, LegalMoves, AppendStateKey, Encode) that allocates nothing.
//
// Use it from a game package's tests:
//
//	func TestConformance(t *testing.T) { gametest.Run(t, othello.New()) }
//
// and from a fuzz target:
//
//	func FuzzStatePlayout(f *testing.F) { gametest.FuzzPlayout(f, othello.New()) }
package gametest

import (
	"fmt"
	"testing"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
)

// playoutSeeds drives the random-playout checks: enough trajectories to
// reach pass chains and terminal variety without slowing the suite.
var playoutSeeds = []uint64{1, 2, 3, 5, 8, 13}

// Run executes the full conformance table against g as named subtests.
func Run(t *testing.T, g game.Game) {
	t.Helper()
	checks := []struct {
		name  string
		check func(t *testing.T, g game.Game)
	}{
		{"Metadata", checkMetadata},
		{"InitialState", checkInitialState},
		{"CloneIndependence", checkCloneIndependence},
		{"CopyFromIsClone", checkCopyFromIsClone},
		{"LegalAgreement", checkLegalAgreement},
		{"LegalMovesNonEmptyUntilTerminal", checkLegalMovesNonEmpty},
		{"IllegalPlayPanics", checkIllegalPlayPanics},
		{"TurnAlternation", checkTurnAlternation},
		{"EncodeShape", checkEncodeShape},
		{"EncodePerspectiveFlip", checkEncodePerspectiveFlip},
		{"HashChangesOnPlay", checkHashChangesOnPlay},
		{"HashDeterminism", checkHashDeterminism},
		{"MaxGameLengthBound", checkMaxGameLengthBound},
		{"WinnerOnlyAtTerminal", checkWinnerOnlyAtTerminal},
		{"TerminalStability", checkTerminalStability},
		{"ActionSpaceStable", checkActionSpaceStable},
		{"RolloutAllocatesNothing", checkRolloutAllocs},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) { c.check(t, g) })
	}
}

// walk plays a deterministic random playout from the initial position,
// invoking visit before every move (and once on the terminal or
// length-capped final state with action -1). It stops after maxPlies moves
// even if the game claims not to be over, so a non-terminating game cannot
// hang the suite.
func walk(g game.Game, seed uint64, maxPlies int, visit func(st game.State, ply, action int)) game.State {
	r := rng.New(seed)
	st := g.NewInitial()
	for ply := 0; ply < maxPlies && !st.Terminal(); ply++ {
		legal := st.LegalMoves(nil)
		if len(legal) == 0 {
			break // checkLegalMovesNonEmpty reports this case
		}
		a := legal[r.Intn(len(legal))]
		if visit != nil {
			visit(st, ply, a)
		}
		st.Play(a)
	}
	if visit != nil {
		visit(st, -1, -1)
	}
	return st
}

func checkMetadata(t *testing.T, g game.Game) {
	if g.Name() == "" {
		t.Error("Name is empty")
	}
	if g.NumActions() < 1 {
		t.Errorf("NumActions = %d", g.NumActions())
	}
	c, h, w := g.EncodedShape()
	if c < 1 || h < 1 || w < 1 {
		t.Errorf("EncodedShape = (%d, %d, %d)", c, h, w)
	}
	if g.MaxGameLength() < 1 {
		t.Errorf("MaxGameLength = %d", g.MaxGameLength())
	}
}

func checkInitialState(t *testing.T, g game.Game) {
	st := g.NewInitial()
	if st.Terminal() {
		t.Fatal("initial state is terminal")
	}
	if st.ToMove() != game.P1 {
		t.Errorf("initial ToMove = %d, want P1", st.ToMove())
	}
	if st.Winner() != game.Nobody {
		t.Errorf("initial Winner = %d, want Nobody", st.Winner())
	}
	if len(st.LegalMoves(nil)) == 0 {
		t.Error("initial state has no legal moves")
	}
}

func checkCloneIndependence(t *testing.T, g game.Game) {
	st := g.NewInitial()
	// A few plies in, so the clone carries real structure.
	walkInto(st, 3)
	if st.Terminal() {
		return
	}
	hash := st.Hash()
	enc := encodeOf(st)
	legal := st.LegalMoves(nil)

	cl := st.Clone()
	if cl.Hash() != hash {
		t.Fatalf("clone hash %#x != original %#x", cl.Hash(), hash)
	}
	// Mutating the clone must not leak into the original.
	cl.Play(cl.LegalMoves(nil)[0])
	if st.Hash() != hash {
		t.Error("playing on a clone changed the original's hash")
	}
	if got := encodeOf(st); !equal32(got, enc) {
		t.Error("playing on a clone changed the original's encoding")
	}
	if got := st.LegalMoves(nil); !equalInts(got, legal) {
		t.Error("playing on a clone changed the original's legal moves")
	}
	// And the original is still playable.
	st.Play(legal[0])
}

// checkCopyFromIsClone: a copy into any position (initial, longer, terminal)
// reads and plays out like that position replayed from the start, and a Play
// on the copy or its source leaves the other so.
func checkCopyFromIsClone(t *testing.T, g game.Game) {
	n := 0 // positions on seed 1's walk, the final one included
	walk(g, 1, g.MaxGameLength()+2, func(game.State, int, int) { n++ })
	at := func(i int) game.State { return walk(g, 1, i, nil) } // replayed, never copied
	for i := 0; i < n; i++ {
		want := future(at(i))
		for _, prior := range []int{0, n - 1, (i + n/2) % n} {
			for played := 0; played < 2; played++ {
				pair := [2]game.State{at(i), at(prior)}
				pair[1].CopyFrom(pair[0])
				if st := pair[played]; !st.Terminal() {
					st.Play(st.LegalMoves(nil)[0])
				}
				if future(pair[1-played]) != want {
					t.Fatalf("ply %d: a copy or its source reads unlike a replay after a Play on the other", i)
				}
			}
		}
	}
}

// future renders everything st shows, now and at the end of a seeded random
// line from it, which it plays.
func future(st game.State) string {
	show := func() string {
		return fmt.Sprint(st.Hash(), st.AppendStateKey(nil), st.LegalMoves(nil), encodeOf(st), st.ToMove(), st.Terminal(), st.Winner())
	}
	now := show()
	for r := rng.New(7); !st.Terminal(); {
		legal := st.LegalMoves(nil)
		st.Play(legal[r.Intn(len(legal))])
	}
	return now + show()
}

func checkLegalAgreement(t *testing.T, g game.Game) {
	for _, seed := range playoutSeeds {
		walk(g, seed, g.MaxGameLength()+2, func(st game.State, ply, _ int) {
			inList := map[int]bool{}
			for _, a := range st.LegalMoves(nil) {
				inList[a] = true
			}
			for a := -1; a <= st.NumActions(); a++ {
				if got := st.Legal(a); got != inList[a] {
					t.Fatalf("seed %d ply %d: Legal(%d) = %v but LegalMoves membership = %v",
						seed, ply, a, got, inList[a])
				}
			}
		})
	}
}

func checkLegalMovesNonEmpty(t *testing.T, g game.Game) {
	for _, seed := range playoutSeeds {
		walk(g, seed, g.MaxGameLength()+2, func(st game.State, ply, _ int) {
			n := len(st.LegalMoves(nil))
			if !st.Terminal() && n == 0 {
				t.Fatalf("seed %d ply %d: non-terminal state with no legal moves (pass must be an explicit action)", seed, ply)
			}
			if st.Terminal() && n != 0 {
				t.Fatalf("seed %d: terminal state still offers %d legal moves", seed, n)
			}
		})
	}
}

func checkIllegalPlayPanics(t *testing.T, g game.Game) {
	st := g.NewInitial()
	for a := 0; a < st.NumActions(); a++ {
		if !st.Legal(a) {
			assertPanics(t, fmt.Sprintf("Play(%d) on illegal action", a), func() { st.Clone().Play(a) })
			break
		}
	}
	assertPanics(t, "Play(-1)", func() { g.NewInitial().Play(-1) })
	assertPanics(t, "Play(NumActions)", func() { g.NewInitial().Play(g.NewInitial().NumActions()) })
}

func checkTurnAlternation(t *testing.T, g game.Game) {
	for _, seed := range playoutSeeds {
		var prev game.Player
		walk(g, seed, g.MaxGameLength()+2, func(st game.State, ply, _ int) {
			mover := st.ToMove()
			if mover != game.P1 && mover != game.P2 {
				t.Fatalf("seed %d ply %d: ToMove = %d", seed, ply, mover)
			}
			// tree.Backup negates the value exactly once per ply, so even
			// "skip" dynamics (an Othello pass) must surface as an explicit
			// move that hands the turn to the opponent.
			if ply > 0 && mover != prev.Opponent() {
				t.Fatalf("seed %d ply %d: turn did not alternate (%d after %d)", seed, ply, mover, prev)
			}
			if ply >= 0 {
				prev = mover
			}
		})
	}
}

func checkEncodeShape(t *testing.T, g game.Game) {
	c, h, w := g.EncodedShape()
	st := g.NewInitial()
	sc, sh, sw := st.EncodedShape()
	if sc != c || sh != h || sw != w {
		t.Fatalf("state EncodedShape (%d,%d,%d) != game (%d,%d,%d)", sc, sh, sw, c, h, w)
	}
	assertPanics(t, "Encode with short buffer", func() { st.Encode(make([]float32, c*h*w-1)) })
	a, b := make([]float32, c*h*w), make([]float32, c*h*w)
	st.Encode(a)
	st.Encode(b)
	if !equal32(a, b) {
		t.Error("Encode is not deterministic")
	}
	for i, v := range a {
		if v < 0 || v > 1 {
			t.Fatalf("Encode[%d] = %v outside [0, 1]", i, v)
		}
	}
}

// checkEncodePerspectiveFlip pins the repository-wide plane convention:
// plane 0 holds the mover's stones and plane 1 the opponent's, so after a
// move (turns alternate) every previous own stone reappears in the new
// opponent plane. Moves may add to or subtract from the OPPONENT's material
// (Othello flips, the Hex steal), but never silently remove the mover's
// own pieces.
func checkEncodePerspectiveFlip(t *testing.T, g game.Game) {
	c, h, w := g.EncodedShape()
	plane := h * w
	for _, seed := range playoutSeeds {
		walk(g, seed, g.MaxGameLength()+2, func(st game.State, ply, action int) {
			if action < 0 {
				return
			}
			before := make([]float32, c*h*w)
			st.Encode(before)
			next := st.Clone()
			next.Play(action)
			after := make([]float32, c*h*w)
			next.Encode(after)
			for i := 0; i < plane; i++ {
				if before[i] == 1 && after[plane+i] != 1 {
					t.Fatalf("seed %d ply %d: own stone at cell %d vanished from the opponent plane after Play(%d)",
						seed, ply, i, action)
				}
			}
		})
	}
}

func checkHashChangesOnPlay(t *testing.T, g game.Game) {
	for _, seed := range playoutSeeds {
		seen := map[uint64]int{}
		walk(g, seed, g.MaxGameLength()+2, func(st game.State, ply, action int) {
			if action < 0 {
				return
			}
			before := st.Hash()
			next := st.Clone()
			next.Play(action)
			if next.Hash() == before {
				t.Fatalf("seed %d ply %d: Hash unchanged by Play(%d)", seed, ply, action)
			}
			seen[before]++
		})
		// A Zobrist hash worthy of transposition detection should not
		// collapse a whole trajectory onto a couple of values.
		if len(seen) < 3 && g.MaxGameLength() >= 5 {
			t.Errorf("seed %d: only %d distinct hashes along a playout", seed, len(seen))
		}
	}
}

func checkHashDeterminism(t *testing.T, g game.Game) {
	final := walk(g, 1, g.MaxGameLength()+2, nil)
	again := walk(g, 1, g.MaxGameLength()+2, nil)
	if final.Hash() != again.Hash() {
		t.Error("identical move sequences produced different hashes")
	}
	if cl := final.Clone(); cl.Hash() != final.Hash() {
		t.Error("Clone changed the hash")
	}
}

func checkMaxGameLengthBound(t *testing.T, g game.Game) {
	for _, seed := range playoutSeeds {
		plies := 0
		st := walk(g, seed, g.MaxGameLength(), func(st game.State, ply, action int) {
			if action >= 0 {
				plies++
			}
		})
		if !st.Terminal() {
			t.Fatalf("seed %d: game not terminal after MaxGameLength = %d plies", seed, g.MaxGameLength())
		}
		if plies > g.MaxGameLength() {
			t.Fatalf("seed %d: %d plies exceeds MaxGameLength %d", seed, plies, g.MaxGameLength())
		}
	}
}

func checkWinnerOnlyAtTerminal(t *testing.T, g game.Game) {
	for _, seed := range playoutSeeds {
		walk(g, seed, g.MaxGameLength()+2, func(st game.State, ply, _ int) {
			if !st.Terminal() && st.Winner() != game.Nobody {
				t.Fatalf("seed %d ply %d: non-terminal state reports winner %d", seed, ply, st.Winner())
			}
		})
	}
}

func checkTerminalStability(t *testing.T, g game.Game) {
	st := walk(g, 2, g.MaxGameLength()+2, nil)
	if !st.Terminal() {
		t.Fatal("playout did not reach a terminal state")
	}
	w := st.Winner()
	for i := 0; i < 3; i++ {
		if !st.Terminal() || st.Winner() != w {
			t.Fatal("Terminal/Winner are not stable under repeated reads")
		}
	}
	for a := -1; a <= st.NumActions(); a++ {
		if st.Legal(a) {
			t.Fatalf("terminal state reports Legal(%d)", a)
		}
	}
	// Terminal states are still encoded (the value target of the final
	// sample) and cloned (engine scratch) without blowing up.
	c, h, wdt := st.EncodedShape()
	st.Encode(make([]float32, c*h*wdt))
	if cl := st.Clone(); cl.Winner() != w {
		t.Error("clone of a terminal state changed the winner")
	}
}

func checkActionSpaceStable(t *testing.T, g game.Game) {
	c, h, w := g.EncodedShape()
	walk(g, 3, g.MaxGameLength()+2, func(st game.State, ply, _ int) {
		if st.NumActions() != g.NumActions() {
			t.Fatalf("ply %d: state NumActions %d != game %d", ply, st.NumActions(), g.NumActions())
		}
		sc, sh, sw := st.EncodedShape()
		if sc != c || sh != h || sw != w {
			t.Fatalf("ply %d: EncodedShape changed mid-game", ply)
		}
	})
}

// checkRolloutAllocs pins what every rollout does to its scratch state: a
// CopyFrom of the root into a used state, a Play, and LegalMoves,
// AppendStateKey and Encode into reused buffers, none of which may allocate.
func checkRolloutAllocs(t *testing.T, g game.Game) {
	c, h, w := g.EncodedShape()
	enc := make([]float32, c*h*w)
	legal := make([]int, 0, g.NumActions())
	key := g.NewInitial().AppendStateKey(nil)
	for _, seed := range playoutSeeds {
		walk(g, seed, g.MaxGameLength()+2, func(root game.State, ply, action int) {
			if action < 0 || ply%4 != 0 {
				return
			}
			scratch := walk(g, seed+1, g.MaxGameLength()+2, nil)
			allocs := testing.AllocsPerRun(5, func() {
				scratch.CopyFrom(root)
				scratch.Play(action)
				legal = scratch.LegalMoves(legal[:0])
				key = scratch.AppendStateKey(key[:0])
				scratch.Encode(enc)
			})
			if allocs != 0 {
				t.Fatalf("seed %d ply %d: a rollout step allocates %v times", seed, ply, allocs)
			}
		})
	}
}

// FuzzPlayout is the shared body of each game's FuzzStatePlayout target:
// the fuzz input is interpreted as a move-selection script, and the engine
// invariants (no panic on legal play, Winner only at Terminal, hash
// movement, the MaxGameLength bound) are asserted along the trajectory.
func FuzzPlayout(f *testing.F, g game.Game) {
	f.Helper()
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{255, 254, 0, 128, 17, 3, 99, 42, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		st := g.NewInitial()
		maxPlies := g.MaxGameLength()
		for ply := 0; ; ply++ {
			if st.Terminal() {
				if len(st.LegalMoves(nil)) != 0 {
					t.Fatal("terminal state offers legal moves")
				}
				break
			}
			if st.Winner() != game.Nobody {
				t.Fatalf("ply %d: winner %d before Terminal", ply, st.Winner())
			}
			if ply >= maxPlies {
				t.Fatalf("game exceeded MaxGameLength %d", maxPlies)
			}
			legal := st.LegalMoves(nil)
			if len(legal) == 0 {
				t.Fatalf("ply %d: non-terminal state with no legal moves", ply)
			}
			pick := 0
			if ply < len(script) {
				pick = int(script[ply]) % len(legal)
			}
			a := legal[pick]
			if !st.Legal(a) {
				t.Fatalf("ply %d: LegalMoves offered %d but Legal rejects it", ply, a)
			}
			before := st.Hash()
			st.Play(a)
			if st.Hash() == before {
				t.Fatalf("ply %d: Play(%d) left the hash unchanged", ply, a)
			}
		}
	})
}

func walkInto(st game.State, plies int) {
	for i := 0; i < plies && !st.Terminal(); i++ {
		st.Play(st.LegalMoves(nil)[0])
	}
}

func encodeOf(st game.State) []float32 {
	c, h, w := st.EncodedShape()
	buf := make([]float32, c*h*w)
	st.Encode(buf)
	return buf
}

func equal32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func assertPanics(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
