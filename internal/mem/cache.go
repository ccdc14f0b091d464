package mem

import (
	"fmt"

	"suvtm/internal/metrics"
	"suvtm/internal/sim"
)

// LineState is the local coherence state of a cached line. Exclusive and
// Modified are collapsed into Modified plus a dirty flag; the global view
// (owner, sharers) lives in the coherence directory.
type LineState uint8

const (
	// Invalid means the line is not present.
	Invalid LineState = iota
	// Shared means the line is present read-only, possibly in other caches.
	Shared
	// Modified means this cache owns the line exclusively and may write it.
	Modified
)

// String returns a short name for the state.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

// CacheConfig describes a set-associative cache geometry.
type CacheConfig struct {
	SizeBytes int // total capacity in bytes
	Ways      int // associativity
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (sim.LineBytes * c.Ways)
}

// Lines returns the total number of lines the cache can hold.
func (c CacheConfig) Lines() int { return c.SizeBytes / sim.LineBytes }

type cacheWay struct {
	line  sim.Line
	state LineState
	dirty bool
	spec  bool // holds speculative (transactional) data — FasTM / DynTM lazy
	lru   uint64
}

// CacheStats counts cache activity for the observability layer. The
// counters are plain adds with no timing effect; Lookup counts demand
// lookups (Peek, used by invariant checks, does not count).
type CacheStats struct {
	Lookups   metrics.Counter // Lookup calls
	Hits      metrics.Counter // Lookup calls that found the line
	Inserts   metrics.Counter // lines filled
	Evictions metrics.Counter // valid victims displaced by fills
}

// Cache is a set-associative, write-back cache with true LRU replacement.
// It tracks tags and per-line flags only; data values live in Memory.
type Cache struct {
	cfg  CacheConfig
	sets [][]cacheWay
	// tagSets mirrors each way's line number in a dense parallel array so
	// the hot membership scan touches one cache line instead of the full
	// way structs. Tags of Invalid ways are stale (never cleared); find
	// confirms validity on a tag match before trusting it.
	tagSets  [][]sim.Line
	setMask  sim.Line
	lruClock uint64

	// touched tracks which sets have been filled since construction (or
	// the last Reset) so Reset invalidates only the footprint a run
	// actually used — the 8 MB L2 has 16384 sets, and small workloads
	// touch a fraction of them.
	setTouched  []bool
	touchedSets []sim.Line

	stats CacheStats // activity counts
}

// NewCache builds a cache with the given geometry. The number of sets
// must be a power of two.
func NewCache(cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache set count %d is not a positive power of two", sets))
	}
	c := &Cache{cfg: cfg, setMask: sim.Line(sets - 1)}
	c.sets = make([][]cacheWay, sets)
	c.tagSets = make([][]sim.Line, sets)
	// One flat backing array for every way keeps construction at a few
	// allocations regardless of geometry (the 8 MB L2 has 16384 sets).
	backing := make([]cacheWay, sets*cfg.Ways)
	tagBacking := make([]sim.Line, sets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
		c.tagSets[i] = tagBacking[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.setTouched = make([]bool, sets)
	c.touchedSets = make([]sim.Line, 0, sets)
	return c
}

// Reset returns the cache to its post-construction state while keeping
// the way arrays (an arena-reuse path: the 8 MB L2's backing array is
// the single largest per-run allocation). Every valid way is
// invalidated and the stats are zeroed; stale tags and LRU stamps stay
// in place — find ignores Invalid ways, and victim selection only
// compares stamps among ways filled after the reset, so a reset cache
// is behaviorally identical to a fresh one. A geometry change rebuilds.
func (c *Cache) Reset(cfg CacheConfig) {
	if cfg != c.cfg {
		*c = *NewCache(cfg)
		return
	}
	for _, si := range c.touchedSets {
		set := c.sets[si]
		for i := range set {
			set[i].state = Invalid
			set[i].dirty = false
			set[i].spec = false
		}
		c.setTouched[si] = false
	}
	c.touchedSets = c.touchedSets[:0]
	c.stats = CacheStats{}
}

// Stats returns the activity counts.
func (c *Cache) Stats() CacheStats { return c.stats }

// SetIndex returns the set index for line (used by the SUV redirect-entry
// geometry, which stores L1 set-index bits — Figure 3).
func (c *Cache) SetIndex(line sim.Line) int { return int(line & c.setMask) }

// find locates line's way, moving a hit to way 0 so the repeat lookups
// that dominate the access pattern (peek + demand + dirty-mark on the
// same line) match on the first tag probe. The swap changes only the
// physical way a line occupies, which nothing observes: ways within a
// set are interchangeable, every scan (reuse, free-way, victim) covers
// the whole set, and victim selection compares the lru stamps — unique,
// and carried along in the swap — never positions.
//
//suv:hotpath
func (c *Cache) find(line sim.Line) *cacheWay {
	si := line & c.setMask
	tags := c.tagSets[si]
	set := c.sets[si]
	for i := range tags {
		if tags[i] == line && set[i].state != Invalid {
			if i != 0 {
				tags[0], tags[i] = tags[i], tags[0]
				set[0], set[i] = set[i], set[0]
				return &set[0]
			}
			return &set[i]
		}
	}
	return nil
}

// Lookup reports whether line is present and in what state. A hit
// refreshes the line's LRU position.
//
//suv:hotpath
func (c *Cache) Lookup(line sim.Line) (LineState, bool) {
	c.stats.Lookups.Inc()
	w := c.find(line)
	if w == nil {
		return Invalid, false
	}
	c.stats.Hits.Inc()
	c.lruClock++
	w.lru = c.lruClock
	return w.state, true
}

// Peek is Lookup without the LRU side effect.
//
//suv:hotpath
func (c *Cache) Peek(line sim.Line) (LineState, bool) {
	w := c.find(line)
	if w == nil {
		return Invalid, false
	}
	return w.state, true
}

// IsDirty reports whether line is present and dirty.
func (c *Cache) IsDirty(line sim.Line) bool {
	w := c.find(line)
	return w != nil && w.dirty
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Line  sim.Line
	Dirty bool
	Spec  bool
	Valid bool // false when Insert found a free way
}

// Insert fills line with the given state, evicting the LRU way if the set
// is full and returning the victim. When avoidSpec is true, non-speculative
// ways are preferred as victims (FasTM tries to pin speculative data in the
// L1); if only speculative ways remain the LRU speculative way is evicted,
// which the caller must treat as a transactional overflow.
//
//suv:hotpath
func (c *Cache) Insert(line sim.Line, state LineState, avoidSpec bool) Victim {
	if state == Invalid {
		panic("mem: Insert with Invalid state")
	}
	si := line & c.setMask
	set := c.sets[si]
	tags := c.tagSets[si]
	if !c.setTouched[si] {
		c.setTouched[si] = true
		c.touchedSets = append(c.touchedSets, si)
	}
	c.lruClock++
	// Re-use the existing way on an insert-over-present (state change).
	for i := range set {
		if set[i].state != Invalid && set[i].line == line {
			set[i].state = state
			set[i].lru = c.lruClock
			return Victim{}
		}
	}
	c.stats.Inserts.Inc()
	// Free way?
	for i := range set {
		if set[i].state == Invalid {
			set[i] = cacheWay{line: line, state: state, lru: c.lruClock}
			tags[i] = line
			return Victim{}
		}
	}
	// Choose an LRU victim, preferring non-speculative ways if asked.
	victim := -1
	for i := range set {
		if avoidSpec && set[i].spec {
			continue
		}
		if victim < 0 || set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if victim < 0 { // every way speculative: forced speculative eviction
		for i := range set {
			if victim < 0 || set[i].lru < set[victim].lru {
				victim = i
			}
		}
	}
	c.stats.Evictions.Inc()
	v := Victim{Line: set[victim].line, Dirty: set[victim].dirty, Spec: set[victim].spec, Valid: true}
	set[victim] = cacheWay{line: line, state: state, lru: c.lruClock}
	tags[victim] = line
	return v
}

// SetState changes the state of a present line; it is a no-op when the
// line is absent. Downgrading to Shared clears the dirty flag (the caller
// is responsible for the write-back).
func (c *Cache) SetState(line sim.Line, state LineState) {
	if w := c.find(line); w != nil {
		w.state = state
		if state != Modified {
			w.dirty = false
		}
	}
}

// MarkDirty flags a present line as dirty.
func (c *Cache) MarkDirty(line sim.Line) {
	if w := c.find(line); w != nil {
		w.dirty = true
	}
}

// ClearDirty removes the dirty flag from a present line (after write-back).
func (c *Cache) ClearDirty(line sim.Line) {
	if w := c.find(line); w != nil {
		w.dirty = false
	}
}

// MarkSpec flags a present line as holding speculative data.
func (c *Cache) MarkSpec(line sim.Line, spec bool) {
	if w := c.find(line); w != nil {
		w.spec = spec
	}
}

// Invalidate removes line and reports whether it was present and dirty.
func (c *Cache) Invalidate(line sim.Line) (wasDirty bool, wasPresent bool) {
	if w := c.find(line); w != nil {
		wasDirty = w.dirty
		w.state = Invalid
		w.dirty = false
		w.spec = false
		return wasDirty, true
	}
	return false, false
}

// FlashClearSpec clears the speculative flag on every line (FasTM commit:
// speculative data becomes the committed version in a single cycle).
// It returns the number of lines cleared.
func (c *Cache) FlashClearSpec() int {
	n := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].spec {
				c.sets[s][i].spec = false
				n++
			}
		}
	}
	return n
}

// FlashInvalidateSpec invalidates every speculative line (FasTM abort:
// the pre-transaction version is refetched from the L2 on demand). It
// returns the invalidated lines so the caller can restore their values.
func (c *Cache) FlashInvalidateSpec() []sim.Line {
	var out []sim.Line
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].spec {
				out = append(out, c.sets[s][i].line)
				c.sets[s][i] = cacheWay{}
			}
		}
	}
	return out
}

// CountSpec returns the number of speculative lines currently held.
func (c *Cache) CountSpec() int {
	n := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].spec {
				n++
			}
		}
	}
	return n
}

// ForEach visits every valid line (coherence auditing, tests).
func (c *Cache) ForEach(fn func(line sim.Line, state LineState, dirty, spec bool)) {
	for s := range c.sets {
		for i := range c.sets[s] {
			w := &c.sets[s][i]
			if w.state != Invalid {
				fn(w.line, w.state, w.dirty, w.spec)
			}
		}
	}
}

// CountValid returns the number of valid lines (tests).
func (c *Cache) CountValid() int {
	n := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].state != Invalid {
				n++
			}
		}
	}
	return n
}
