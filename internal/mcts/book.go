package mcts

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/tree"
)

// BookEntry is one precomputed opening position: the root visit
// distribution a full search produced for it, keyed by Zobrist hash plus
// the same full-state verification key the transposition table uses (a
// hash collision must miss, never serve another position's moves).
type BookEntry struct {
	Hash   uint64    `json:"hash"`
	Verify []byte    `json:"verify"`
	Ply    int       `json:"ply"`
	Visits int       `json:"visits"`
	Dist   []float32 `json:"dist"`
}

// Book is an offline opening book: precomputed root visit distributions
// for the first plies of a game, served table-first by every engine — a
// Search whose position is booked returns the stored distribution with
// zero playouts and zero DNN evaluations. Built offline with BuildBook
// (typically via cmd/bookgen), persisted as JSON.
//
// After Load or BuildBook the book is immutable, so concurrent Lookups
// from a fleet of engines need no locking.
type Book struct {
	Game     string      `json:"game"`
	Actions  int         `json:"actions"`
	MaxPly   int         `json:"max_ply"`
	Playouts int         `json:"playouts"`
	Entries  []BookEntry `json:"entries"`

	index map[uint64][]int
}

// buildIndex populates the hash → entry-indices map (collisions keep a
// slice so verification can disambiguate).
func (b *Book) buildIndex() {
	b.index = make(map[uint64][]int, len(b.Entries))
	for i, e := range b.Entries {
		b.index[e.Hash] = append(b.index[e.Hash], i)
	}
}

// Len returns the number of booked positions.
func (b *Book) Len() int { return len(b.Entries) }

// Lookup returns the booked entry for st, or nil when the position is not
// in the book (or fails verification).
func (b *Book) Lookup(st game.State) *BookEntry {
	if b == nil || b.index == nil {
		return nil
	}
	idxs, ok := b.index[st.Hash()]
	if !ok {
		return nil
	}
	key := game.StateKey(st, nil)
	for _, i := range idxs {
		if bytes.Equal(b.Entries[i].Verify, key) {
			return &b.Entries[i]
		}
	}
	return nil
}

// Fill copies the booked distribution for st into dist and reports whether
// the position was served.
func (b *Book) Fill(st game.State, dist []float32) bool {
	e := b.Lookup(st)
	if e == nil || len(e.Dist) != len(dist) {
		return false
	}
	copy(dist, e.Dist)
	return true
}

// Save writes the book as JSON.
func (b *Book) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(b)
}

// LoadBook reads a JSON book and builds its lookup index.
func LoadBook(r io.Reader) (*Book, error) {
	var b Book
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("book: %w", err)
	}
	b.buildIndex()
	return &b, nil
}

// bookServe answers a Search from the configured opening book, if the
// position is booked. Engines call it before touching their session: a
// book hit costs zero playouts, and the untouched session still tracks the
// game through the driver's Advance calls, so later unbooked moves resume
// normal (even warm) searching.
func bookServe(cfg Config, st game.State, dist []float32) (Stats, bool) {
	if cfg.Book == nil {
		return Stats{}, false
	}
	if !cfg.Book.Fill(st, dist) {
		return Stats{}, false
	}
	return Stats{BookHits: 1}, true
}

// BookConfig controls BuildBook's breadth-first expansion.
type BookConfig struct {
	// MaxPly is the last ply (0 = initial position only) whose positions
	// are booked.
	MaxPly int
	// MinVisitFrac prunes the expansion: only children holding at least
	// this share of the parent's root visits are descended into (their
	// siblings are opening lines a trained policy essentially never
	// plays). Zero means every positively-visited child.
	MinVisitFrac float32
}

// DefaultBookConfig books the first 4 plies along lines that hold at least
// 5% of the parent's visits.
func DefaultBookConfig() BookConfig {
	return BookConfig{MaxPly: 4, MinVisitFrac: 0.05}
}

// BuildBook precomputes the opening book for g by searching every reachable
// opening position breadth-first to MaxPly. All searches run through ONE
// shared transposition table (the caller's Config.TransposeTable, or a
// fresh table when the config has none), which is what makes the sweep
// affordable: sibling opening lines transpose heavily, so each position's
// evaluation is bought once across the whole frontier — the book is
// literally derived from the final state of that table's statistics. The
// returned Stats aggregate every search (Evaluations vs TransHits show the
// dedup).
func BuildBook(g game.Game, cfg Config, eval evaluate.Evaluator, bcfg BookConfig) (*Book, Stats) {
	cfg.ReuseTree = false // every frontier position gets a full fresh search
	cfg.Book = nil
	if cfg.TransposeTable == nil {
		size := cfg.TransposeSize
		if size <= 0 {
			size = tree.DefaultTransTableSize
		}
		cfg.TransposeTable = tree.NewTransTable(size)
	}
	eng := NewSerial(cfg, eval)
	defer eng.Close()

	book := &Book{
		Game:     g.Name(),
		Actions:  g.NumActions(),
		MaxPly:   bcfg.MaxPly,
		Playouts: cfg.Playouts,
	}
	var total Stats

	type frontierItem struct {
		st  game.State
		ply int
	}
	frontier := []frontierItem{{st: g.NewInitial(), ply: 0}}
	seen := map[string]bool{}
	dist := make([]float32, g.NumActions())
	for len(frontier) > 0 {
		item := frontier[0]
		frontier = frontier[1:]
		if item.st.Terminal() {
			continue
		}
		key := game.StateKey(item.st, nil)
		id := string(key)
		if seen[id] {
			continue // transposed opening line already booked
		}
		seen[id] = true

		stats := eng.Search(item.st, dist)
		total.Add(stats)
		entry := BookEntry{
			Hash:   item.st.Hash(),
			Verify: key,
			Ply:    item.ply,
			Visits: stats.Playouts + stats.ReusedVisits,
			Dist:   append([]float32(nil), dist...),
		}
		book.Entries = append(book.Entries, entry)
		eng.Advance(DiscardTree)

		if item.ply >= bcfg.MaxPly {
			continue
		}
		for a, frac := range entry.Dist {
			if frac <= 0 || frac < bcfg.MinVisitFrac {
				continue
			}
			child := item.st.Clone()
			child.Play(a)
			frontier = append(frontier, frontierItem{st: child, ply: item.ply + 1})
		}
	}
	book.buildIndex()
	return book, total
}
