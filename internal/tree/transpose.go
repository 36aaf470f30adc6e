// Transposition support: a lock-striped table mapping Zobrist hash (plus a
// full-state verification key) to shared per-state statistics and cached
// evaluations, turning the per-session tree into a transposition-sharing
// DAG. Distinct search lines that reach the same position attach their tree
// node to the same TransEntry, so they converge on one pool of visit
// statistics and one DNN evaluation instead of re-buying both.
//
// The table stores *state* values (from the perspective of the player to
// move at the state), while tree edges store *edge* values (parent's
// perspective). Selection uses the shared state statistics for Q — the
// UCT2-style "shared value, local exploration" rule of
// transposition-table MCTS (Childs et al.) — while the exploration term
// keeps the local edge counts so PUCT's progressive widening along each
// in-edge stays intact. See score() in tree.go for the DAG branch.
package tree

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// StateStats are the shared per-state search statistics: every tree edge
// attached to the same TransEntry contributes its backups here. Values are
// stored from the perspective of the player to move AT the state (the
// negation of the owning edges' parent perspective), fixed-point wScale
// like Node.w.
type StateStats struct {
	n  atomic.Int32 // completed backups through any in-edge
	vl atomic.Int32 // outstanding in-flight traversals across all in-edges
	w  atomic.Int64 // accumulated value, state-mover perspective, ×wScale
}

// Visits returns the shared visit count.
func (s *StateStats) Visits() int { return int(s.n.Load()) }

// VirtualLossCount returns the outstanding in-flight traversals summed over
// every in-edge.
func (s *StateStats) VirtualLossCount() int { return int(s.vl.Load()) }

// TotalValue returns the accumulated value from the state mover's
// perspective.
func (s *StateStats) TotalValue() float64 { return float64(s.w.Load()) / wScale }

// TransEntry is one transposition-table entry: the shared statistics plus
// the cached DNN evaluation of the state (clean priors, pre-noise).
type TransEntry struct {
	stats StateStats

	mu      sync.Mutex
	hasEval bool
	value   float64
	acts    []int16
	priors  []float32
}

// Stats returns the shared per-state statistics block.
func (e *TransEntry) Stats() *StateStats { return &e.stats }

// StoreEval records the state's evaluation: the DNN value plus the masked,
// normalised, noise-free priors over the legal actions. First writer wins
// and later calls are no-ops, by design: transposed lines reach one position
// through different last moves, so their network inputs, and outputs, differ
// in the last-move plane. Which line writes first is deterministic only when
// one thread searches the table.
func (e *TransEntry) StoreEval(value float64, actions []int, priors []float32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hasEval {
		return
	}
	e.acts = make([]int16, len(actions))
	for i, a := range actions {
		e.acts[i] = int16(a)
	}
	e.priors = append([]float32(nil), priors...)
	e.value = value
	e.hasEval = true
}

// LoadEval copies the cached evaluation into the caller's scratch slices
// (reallocated only if too small) and returns the value and the filled
// slices. ok is false when no evaluation has been stored yet.
func (e *TransEntry) LoadEval(acts []int, priors []float32) (value float64, actions []int, pr []float32, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.hasEval {
		return 0, acts, priors, false
	}
	k := len(e.acts)
	if cap(acts) < k {
		acts = make([]int, k)
	}
	acts = acts[:k]
	if cap(priors) < k {
		priors = make([]float32, k)
	}
	priors = priors[:k]
	for i, a := range e.acts {
		acts[i] = int(a)
	}
	copy(priors, e.priors)
	return e.value, acts, priors, true
}

// HasEval reports whether an evaluation has been stored.
func (e *TransEntry) HasEval() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hasEval
}

// transSlot binds a verification key to its entry. The verify bytes are the
// state's canonical identity (State.AppendStateKey); two states hashing to
// the same Zobrist key but differing in verify are never merged.
type transSlot struct {
	verify  []byte
	entry   *TransEntry
	touched bool // clock/second-chance reference bit
}

// transShard is one lock stripe of the table, shaped like evaluate's
// cacheShard: a bounded map with clock (second-chance) eviction driven by a
// ring of keys.
type transShard struct {
	capacity int

	mu         sync.Mutex
	entries    map[uint64]*transSlot
	ring       []uint64
	hand       int
	hits       uint64
	misses     uint64
	collisions uint64
	evictions  uint64
	// Pad to a cache line so shard counters don't false-share.
	_ [40]byte
}

// TransStats is an aggregated snapshot of table effectiveness.
type TransStats struct {
	Hits       uint64 // verified lookups that found an existing entry
	Misses     uint64 // lookups that inserted a fresh entry
	Collisions uint64 // hash present but verification key differed (replaced)
	Evictions  uint64 // entries reclaimed by the clock hand
	Entries    int    // current resident entries
}

// HitRate returns Hits / (Hits + Misses), 0 when idle.
func (s TransStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// TransTable is the lock-striped transposition table. It is safe for
// concurrent use by many engines (the fleet-shared configuration) as well
// as a single session.
type TransTable struct {
	shards []transShard
	mask   uint64
}

// transMinPerShard keeps shards from degenerating into tiny maps when the
// configured capacity is small.
const transMinPerShard = 256

// transDefaultShards is the stripe count for large tables.
const transDefaultShards = 64

// NewTransTable creates a table bounded at roughly capacity entries, with a
// stripe count derived from the capacity (one shard per transMinPerShard
// entries, capped at transDefaultShards).
func NewTransTable(capacity int) *TransTable {
	shards := capacity / transMinPerShard
	if shards < 1 {
		shards = 1
	}
	if shards > transDefaultShards {
		shards = transDefaultShards
	}
	return NewTransTableSharded(capacity, shards)
}

// NewTransTableSharded creates a table with an explicit stripe count
// (rounded up to a power of two so shard selection is a mask).
func NewTransTableSharded(capacity, shards int) *TransTable {
	if capacity < 1 {
		panic("tree: transposition table capacity must be at least 1")
	}
	if shards < 1 {
		shards = 1
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	per := (capacity + pow - 1) / pow
	if per < 1 {
		per = 1
	}
	t := &TransTable{shards: make([]transShard, pow), mask: uint64(pow - 1)}
	for i := range t.shards {
		s := &t.shards[i]
		s.capacity = per
		s.entries = make(map[uint64]*transSlot, per)
		s.ring = make([]uint64, 0, per)
	}
	return t
}

// shardFor mixes the hash before striping so that Zobrist keys sharing low
// bits spread across shards independently of the in-shard map distribution.
func (t *TransTable) shardFor(hash uint64) *transShard {
	h := hash
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &t.shards[h&t.mask]
}

// Acquire returns the entry for (hash, verify), creating one on miss. The
// verification key is compared byte-for-byte on every hash hit: a mismatch
// means a true Zobrist collision, and the resident entry is REPLACED with a
// fresh one rather than shared — two distinct positions must never merge,
// whatever the hash says. hit reports whether an existing verified entry
// was returned.
//
// The verify slice is copied on insert; callers may reuse their scratch.
func (t *TransTable) Acquire(hash uint64, verify []byte) (entry *TransEntry, hit bool) {
	s := t.shardFor(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.entries[hash]; ok {
		if bytes.Equal(slot.verify, verify) {
			slot.touched = true
			s.hits++
			return slot.entry, true
		}
		// Genuine 64-bit collision: evict the resident state. The two
		// positions cannot share a slot keyed by hash alone, and the newer
		// one is the live line.
		s.collisions++
		slot.verify = append(slot.verify[:0], verify...)
		slot.entry = &TransEntry{}
		slot.touched = true
		return slot.entry, false
	}
	s.misses++
	if len(s.entries) >= s.capacity {
		s.evictLocked()
	}
	slot := &transSlot{
		verify:  append([]byte(nil), verify...),
		entry:   &TransEntry{},
		touched: false,
	}
	s.entries[hash] = slot
	s.ring = append(s.ring, hash)
	return slot.entry, false
}

// Lookup returns the verified entry for (hash, verify) without inserting,
// or nil when absent or failing verification.
func (t *TransTable) Lookup(hash uint64, verify []byte) *TransEntry {
	s := t.shardFor(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.entries[hash]; ok && bytes.Equal(slot.verify, verify) {
		slot.touched = true
		s.hits++
		return slot.entry
	}
	return nil
}

// evictLocked advances the clock hand until a second-chance victim falls
// out. Called with the shard lock held.
func (s *transShard) evictLocked() {
	for len(s.entries) >= s.capacity && len(s.ring) > 0 {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		key := s.ring[s.hand]
		slot, ok := s.entries[key]
		if !ok {
			// Stale ring key (already evicted); compact it away.
			s.ring[s.hand] = s.ring[len(s.ring)-1]
			s.ring = s.ring[:len(s.ring)-1]
			continue
		}
		if slot.touched {
			slot.touched = false
			s.hand++
			continue
		}
		delete(s.entries, key)
		s.evictions++
		s.ring[s.hand] = s.ring[len(s.ring)-1]
		s.ring = s.ring[:len(s.ring)-1]
	}
}

// Stats aggregates counters across shards.
func (t *TransTable) Stats() TransStats {
	var out TransStats
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Collisions += s.collisions
		out.Evictions += s.evictions
		out.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return out
}

// Len returns the resident entry count.
func (t *TransTable) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Reset empties the table and zeroes the counters. Callers must ensure no
// search is in flight (the fleet does this at SGD boundaries, alongside the
// eval-cache reset: a weight update invalidates every cached evaluation,
// and the stale shared statistics would bias the next round's search).
func (t *TransTable) Reset() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.entries = make(map[uint64]*transSlot, s.capacity)
		s.ring = s.ring[:0]
		s.hand = 0
		s.hits, s.misses, s.collisions, s.evictions = 0, 0, 0, 0
		s.mu.Unlock()
	}
}

// OutstandingVirtualLoss sums the shared virtual-loss counters over every
// resident entry. Like Tree.OutstandingVirtualLoss it must be zero whenever
// no search is in flight (fuzzed by FuzzTransposeTable).
func (t *TransTable) OutstandingVirtualLoss() int {
	total := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, slot := range s.entries {
			total += int(slot.entry.stats.vl.Load())
		}
		s.mu.Unlock()
	}
	return total
}

// DefaultTransTableSize is the per-session table budget used when a
// -transpose flag enables the table without an explicit entry count.
const DefaultTransTableSize = 1 << 16

// ParseTransposeSpec parses the -transpose flag value shared by the
// binaries: "off" (or "") disables the table, "on" enables it at
// DefaultTransTableSize entries, and "on:<n>" or a bare "<n>" sets an
// explicit entry budget. Returns the entry count (0 = disabled).
func ParseTransposeSpec(spec string) (int, error) {
	switch spec {
	case "", "off", "0", "false":
		return 0, nil
	case "on", "true":
		return DefaultTransTableSize, nil
	}
	v := spec
	if rest, ok := strings.CutPrefix(spec, "on:"); ok {
		v = rest
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad -transpose value %q: want off, on, on:<entries>, or <entries>", spec)
	}
	return n, nil
}

// ResolveTransposeFlag is the shared -transpose flag helper for the
// binaries (the games.ResolveFlag pattern): parse the spec into an entry
// budget, or print the error under the binary's name and exit 2.
func ResolveTransposeFlag(binary, spec string) int {
	n, err := ParseTransposeSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", binary, err)
		os.Exit(2)
	}
	return n
}

// TransposeFlag registers the shared -transpose flag: def is the binary's
// default spec, and note, if any, is appended to the usage string. The value
// goes through ResolveTransposeFlag once fs is parsed.
func TransposeFlag(fs *flag.FlagSet, def, note string) *string {
	return fs.String("transpose", def, fmt.Sprintf("transposition-sharing DAG search: off, on, or on:<entries> (default budget %d)", DefaultTransTableSize)+note)
}
