package games

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/hex"
	"github.com/parmcts/parmcts/internal/rng"
)

// goldenTranscripts pins, per game, one FNV-64a digest over everything a
// state shows along 200 seeded random games: the Zobrist hash the
// transposition table probes with, the Encode bits the network reads, the
// state key the table verifies with, the rendering, the legal moves, the
// mover, the result, and a Clone/CopyFrom round trip. Engines and golden
// search trajectories depend on all of these, so a refactor of the games
// must leave every digest where it is.
var goldenTranscripts = []struct {
	spec   string
	digest uint64
}{
	{"tictactoe", 0xdc787bee6a992d7d},
	{"connect4", 0x8234ccd6abe8606f},
	{"gomoku:5", 0xd56f64f5a99ae944},
	{"gomoku:9", 0xcb1a935d22291a51},
	{"gomoku:15", 0x31687596f44da828},
	{"othello:4", 0xcd0088668a4371ef},
	{"othello:6", 0xbdf0a8ad6a085479},
	{"othello:8", 0xe7c4e7142110a248},
	{"hex:2", 0x4d52f4283180146e},
	{"hex:7", 0x17face86510db344},
	{"hex:11", 0x081a3524febaee3e},
	{"hex-swap:5", 0x2547f16f156e9822},
}

func goldenGame(t *testing.T, spec string) game.Game {
	if spec == "hex-swap:5" {
		return hex.NewSwap(5)
	}
	g, err := game.NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// transcriptDigest plays games seeded random games of g and folds every
// position on the way into one digest.
func transcriptDigest(g game.Game, games int) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	c, hh, w := g.EncodedShape()
	enc := make([]float32, c*hh*w)
	var legal []int
	var key []byte
	scratch := g.NewInitial()
	show := func(st game.State) {
		put(st.Hash())
		st.Encode(enc)
		for _, v := range enc {
			put(uint64(math.Float32bits(v)))
		}
		key = st.AppendStateKey(key[:0])
		put(uint64(len(key)))
		h.Write(key)
		fmt.Fprint(h, st)
		legal = st.LegalMoves(legal[:0])
		put(uint64(len(legal)))
		for _, a := range legal {
			put(uint64(a))
		}
		put(uint64(int64(st.ToMove())))
		put(uint64(int64(st.Winner())))
		if st.Terminal() {
			put(1)
		} else {
			put(0)
		}
	}
	r := rng.New(0x60D1E7)
	for i := 0; i < games; i++ {
		st := g.NewInitial()
		for {
			show(st)
			scratch.CopyFrom(st.Clone())
			put(scratch.Hash())
			key = scratch.AppendStateKey(key[:0])
			h.Write(key)
			if st.Terminal() {
				break
			}
			legal = st.LegalMoves(legal[:0])
			st.Play(legal[r.Intn(len(legal))])
		}
	}
	return h.Sum64()
}

// TestGoldenTranscripts holds every game to the digest it had before the
// games shared one board type.
func TestGoldenTranscripts(t *testing.T) {
	for _, tc := range goldenTranscripts {
		t.Run(tc.spec, func(t *testing.T) {
			if got := transcriptDigest(goldenGame(t, tc.spec), 200); got != tc.digest {
				t.Errorf("digest %#x, want %#x", got, tc.digest)
			}
		})
	}
}
