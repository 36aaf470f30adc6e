package evaluate

import "sync"

// defaultShards is the shard count used by NewCached. 64 shards keep the
// probability of two shared-tree workers colliding on one lock below 2%
// even at 64 workers, while the per-shard maps stay large enough for the
// clock hand to have real choices.
const defaultShards = 64

// minEntriesPerShard floors the per-shard capacity NewCached will accept
// before reducing the shard count: a shard holding one or two entries
// evicts on nearly every insert, so tiny caches keep fewer stripes.
const minEntriesPerShard = 8

// Cached wraps a synchronous evaluator with a bounded evaluation cache
// keyed by the input planes, so a hit is the network's output for exactly
// that input. Within one move's 1600 playouts, and across
// consecutive moves, identical positions are evaluated repeatedly (the
// paper's engines re-expand the tree from scratch every move); caching
// trades memory for skipped DNN calls. This is an optional extension
// beyond the paper, and the Stats method makes its benefit measurable.
//
// The cache is safe for concurrent use by shared-tree workers. The table is
// split into lock-striped shards selected by the input hash, so workers
// evaluating different positions contend only when their hashes land in the
// same stripe, instead of serialising on one global mutex. Eviction is
// clock-style (second chance) per shard, which avoids the allocation and
// lock churn of a strict LRU list. Crucially, a miss NEVER holds a shard
// lock while the inner evaluator runs: the lock is released before the DNN
// call and retaken to insert, so one slow evaluation cannot block every
// other worker hashing into the same shard.
type Cached struct {
	inner  Evaluator
	shards []cacheShard
}

// cacheShard is one lock stripe. The padding keeps neighbouring shards'
// mutexes and hit counters on separate cache lines; without it the striping
// would remove logical contention but keep the physical (false-sharing)
// kind.
type cacheShard struct {
	capacity int

	mu      sync.Mutex
	entries map[uint64]cacheEntry // by value: a miss allocates its stored policy and nothing else
	ring    []uint64              // insertion order for clock eviction
	hand    int

	hits, misses uint64

	_ [56]byte // pad the 72 data bytes to 128, two full cache lines
}

type cacheEntry struct {
	policy  []float32
	value   float64
	touched bool
}

// NewCached wraps inner with a cache of at most capacity positions spread
// over up to defaultShards lock stripes, keeping at least
// minEntriesPerShard entries per stripe so small caches are not shredded
// into single-entry shards.
func NewCached(inner Evaluator, capacity int) *Cached {
	if capacity < 1 {
		panic("evaluate: cache capacity must be >= 1")
	}
	shards := capacity / minEntriesPerShard
	if shards > defaultShards {
		shards = defaultShards
	}
	if shards < 1 {
		shards = 1
	}
	return NewCachedSharded(inner, capacity, shards)
}

// NewCachedSharded wraps inner with a cache of at most capacity positions
// split into the given number of lock stripes. shards is clamped to
// [1, capacity] so the total bound is always exactly capacity; shards = 1
// reproduces a single globally-locked cache (useful as a contention
// baseline).
func NewCachedSharded(inner Evaluator, capacity, shards int) *Cached {
	if capacity < 1 {
		panic("evaluate: cache capacity must be >= 1")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &Cached{inner: inner, shards: make([]cacheShard, shards)}
	base := capacity / shards
	extra := capacity % shards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = base
		if i < extra {
			sh.capacity++
		}
		sh.entries = make(map[uint64]cacheEntry, sh.capacity)
	}
	return c
}

// hashInput fingerprints the input planes (FNV-1a over the raw bits).
// Board encodings are exact {0,1} patterns, so float equality is sound.
func hashInput(input []float32) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for _, v := range input {
		bits := uint32(0)
		if v != 0 {
			// The encodings used here are one-hot planes; treating any
			// non-zero as 1 keeps hashing branch-cheap and exact for them.
			bits = uint32(v * 1024)
		}
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(bits >> (8 * i)))
			h *= 0x100000001b3
		}
	}
	return h
}

// shardFor maps a key to its lock stripe. The stripe comes from the high
// half of a multiplicative mix of the key, not from the key's low bits:
// hashInput is FNV-1a over bytes that are almost all 0x00 or 0x04 on one-hot
// planes, so its low four bits take very few values and key % 16 put every
// position of a game into one shard (a 65536-entry cache held 4096).
func (c *Cached) shardFor(key uint64) *cacheShard {
	return &c.shards[(key*0x9E3779B97F4A7C15)>>32%uint64(len(c.shards))]
}

// mixVersion folds a model version into a position key, so the same board
// cached under two views occupies two distinct entries and a lookup
// can never return an evaluation computed by a different network.
func mixVersion(h uint64, version int64) uint64 {
	if version == 0 {
		return h
	}
	z := uint64(version) * 0x9E3779B97F4A7C15
	z ^= z >> 29
	z *= 0xBF58476D1CE4E5B9
	return h ^ z
}

// Evaluate implements Evaluator (the unversioned path: version tag 0,
// evaluated by the inner evaluator the cache was constructed with).
func (c *Cached) Evaluate(input []float32, policy []float32) float64 {
	return c.evaluate(0, c.inner, input, policy)
}

// evaluate is the shared lookup/fill path for the plain Evaluate and every
// version-scoped View. A miss stores its result unless a concurrent miss on
// the same key got there first.
func (c *Cached) evaluate(version int64, inner Evaluator, input []float32, policy []float32) float64 {
	key := mixVersion(hashInput(input), version)
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.touchLocked(key, e)
		copy(policy, e.policy)
		sh.hits++
		sh.mu.Unlock()
		return e.value
	}
	sh.misses++
	sh.mu.Unlock()

	// Miss path: the inner (potentially multi-millisecond DNN) evaluation
	// runs with no lock held.
	value := inner.Evaluate(input, policy)
	stored := make([]float32, len(policy))
	copy(stored, policy)
	sh.mu.Lock()
	if _, exists := sh.entries[key]; !exists {
		if len(sh.entries) >= sh.capacity {
			sh.evictLocked()
		}
		sh.entries[key] = cacheEntry{policy: stored, value: value}
		sh.ring = append(sh.ring, key)
	}
	sh.mu.Unlock()
	return value
}

// CacheView is a version-scoped handle on a shared Cached: lookups and
// inserts are tagged with the view's model version and misses evaluate on
// the view's own inner evaluator (that version's network). All views of one
// Cached share its capacity and lock stripes, so two networks share one
// bounded table without ever mixing each other's evaluations.
type CacheView struct {
	c       *Cached
	version int64
	inner   Evaluator
}

// View returns a version-scoped view over the shared table. version must be
// positive (0 is the plain Evaluate path); inner evaluates misses.
func (c *Cached) View(version int64, inner Evaluator) *CacheView {
	if version <= 0 {
		panic("evaluate: cache view versions must be positive")
	}
	if inner == nil {
		panic("evaluate: cache view needs an inner evaluator")
	}
	return &CacheView{c: c, version: version, inner: inner}
}

// Evaluate implements Evaluator.
func (v *CacheView) Evaluate(input []float32, policy []float32) float64 {
	return v.c.evaluate(v.version, v.inner, input, policy)
}

// touchLocked gives the resident entry e of key its second chance. Entries
// are map values, so the mark is written back — only when it changes, which
// for a hot entry is once per sweep of the clock hand. Caller holds sh.mu.
func (sh *cacheShard) touchLocked(key uint64, e cacheEntry) {
	if !e.touched {
		e.touched = true
		sh.entries[key] = e
	}
}

// evictLocked removes one entry using the clock algorithm. Caller holds
// sh.mu.
func (sh *cacheShard) evictLocked() {
	for len(sh.ring) > 0 {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		key := sh.ring[sh.hand]
		e, ok := sh.entries[key]
		if !ok {
			// stale ring slot: compact it away
			sh.ring[sh.hand] = sh.ring[len(sh.ring)-1]
			sh.ring = sh.ring[:len(sh.ring)-1]
			continue
		}
		if e.touched {
			e.touched = false
			sh.entries[key] = e
			sh.hand++
			continue
		}
		delete(sh.entries, key)
		sh.ring[sh.hand] = sh.ring[len(sh.ring)-1]
		sh.ring = sh.ring[:len(sh.ring)-1]
		return
	}
}

// Reset drops every cached position of every view (hit/miss counters are
// kept). Single-model training loops call it after each parameter update:
// entries computed with the old weights would otherwise serve stale
// evaluations to the next round.
func (c *Cached) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[uint64]cacheEntry, sh.capacity)
		sh.ring = sh.ring[:0]
		sh.hand = 0
		sh.mu.Unlock()
	}
}

// Stats returns cumulative hits and misses aggregated across shards.
func (c *Cached) Stats() (hits, misses uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}

// Len returns the number of cached positions across all shards.
func (c *Cached) Len() int {
	n := 0
	for _, l := range c.ShardLens() {
		n += l
	}
	return n
}

// Shards returns the number of lock stripes (for tests and reports).
func (c *Cached) Shards() int { return len(c.shards) }

// ShardLens returns the number of cached positions in each lock stripe.
func (c *Cached) ShardLens() []int {
	lens := make([]int, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		lens[i] = len(sh.entries)
		sh.mu.Unlock()
	}
	return lens
}
