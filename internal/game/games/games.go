// Package games links the complete scenario catalogue into the game
// registry: blank-importing it (or importing anything from it) makes every
// game in the repository constructible through game.New / game.NewFromSpec.
// Binaries with a -game flag import this package instead of naming concrete
// game packages, so adding a scenario means registering it here and nowhere
// else.
package games

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/parmcts/parmcts/internal/game"
	_ "github.com/parmcts/parmcts/internal/game/connect4"
	_ "github.com/parmcts/parmcts/internal/game/gomoku"
	_ "github.com/parmcts/parmcts/internal/game/hex"
	_ "github.com/parmcts/parmcts/internal/game/othello"
	_ "github.com/parmcts/parmcts/internal/game/tictactoe"
)

// MustNew instantiates a game from a "name[:size]" spec and panics on
// error — for examples and tests where a bad spec is a programming bug.
func MustNew(spec string) game.Game {
	g, err := game.NewFromSpec(spec)
	if err != nil {
		panic(err)
	}
	return g
}

// ResolveFlag instantiates a -game flag value, falling back to def when
// the flag was left empty, and exits the process (stderr, code 2) on a bad
// spec — the uniform error behavior of every cmd binary. binary names the
// program for the error prefix.
func ResolveFlag(binary, spec, def string) game.Game {
	if spec == "" {
		spec = def
	}
	g, err := game.NewFromSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", binary, err)
		os.Exit(2)
	}
	return g
}

// SpecName extracts the base game name from a spec or a checkpoint
// manifest's Game field: "hex:7" -> "hex", and the legacy "gomoku-9"
// manifest naming from before the registry -> "gomoku". Used to refuse
// resuming a checkpoint store onto a different game even when the two
// games' network shapes coincide (hex:9 and gomoku:9 both encode 4x9x9/81).
func SpecName(spec string) string {
	name, _, _ := strings.Cut(strings.TrimSpace(spec), ":")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// Flag registers the -game flag every binary offers, its usage listing every
// registered scenario: def is the binary's default spec, and note, if any, is
// appended to the usage string. The value goes through ResolveFlag once fs is
// parsed.
func Flag(fs *flag.FlagSet, def, note string) *string {
	return fs.String("game", def, "game spec: one of "+strings.Join(game.Names(), ", ")+", with an optional :size (e.g. gomoku:9, hex:7)"+note)
}
