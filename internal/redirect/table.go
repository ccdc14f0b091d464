package redirect

import (
	"fmt"

	"suvtm/internal/sim"
)

// Level says where a redirect-table lookup was satisfied.
type Level uint8

const (
	// LevelL1 is a first-level (per-core, zero-latency) table hit.
	LevelL1 Level = iota
	// LevelL2 is a shared second-level table hit.
	LevelL2
	// LevelMemory means the entry had been swapped out and the
	// software-managed structure in main memory was searched.
	LevelMemory
	// LevelAbsent means no entry exists for the line (a summary-signature
	// false positive, or a speculative use of the original address).
	LevelAbsent
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "memory"
	case LevelAbsent:
		return "absent"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// l1Table is the per-core first-level redirect table: fully associative,
// LRU-replaced, zero access latency (it is integrated in the core's
// pipeline — Section IV-A). Transient entries of the running transaction
// are pinned; when every slot is pinned the table has overflowed.
//
// Entries live in a fixed way array; an open-addressed line→way index
// makes membership O(1). The eviction scan uses the same total order as
// the map implementation it replaced — minimum LRU stamp, ties broken
// by the smaller line — so the victim (and hence the whole simulation)
// is identical regardless of storage layout.
type l1Table struct {
	capacity int
	ways     []l1Way
	index    sim.LineMap[int32]
	free     []int32
	clock    uint64
	pinned   int
}

type l1Way struct {
	line   sim.Line
	lru    uint64
	live   bool
	pinned bool
}

func newL1Table(capacity int) *l1Table {
	t := &l1Table{
		capacity: capacity,
		ways:     make([]l1Way, capacity),
		free:     make([]int32, capacity),
	}
	for i := range t.free {
		t.free[i] = int32(capacity - 1 - i)
	}
	return t
}

// reset restores the table to its newL1Table state, reusing the way and
// free-stack storage. The free stack is rebuilt in construction order so
// a reset table hands out way indices in exactly the same sequence as a
// fresh one (way order is invisible to the simulation, but keeping it
// identical makes reuse trivially bit-safe).
func (t *l1Table) reset() {
	for i := range t.ways {
		t.ways[i] = l1Way{}
	}
	t.free = t.free[:t.capacity]
	for i := range t.free {
		t.free[i] = int32(t.capacity - 1 - i)
	}
	t.index.Clear()
	t.clock = 0
	t.pinned = 0
}

// contains refreshes LRU and reports presence.
//
//suv:hotpath
func (t *l1Table) contains(line sim.Line) bool {
	wi, ok := t.index.Get(line)
	if !ok {
		return false
	}
	t.clock++
	t.ways[wi].lru = t.clock
	return true
}

// insert places line in the table, evicting the LRU unpinned slot when
// full. It returns the evicted line and whether an eviction happened; if
// every slot is pinned the insert fails (overflow) and ok is false.
func (t *l1Table) insert(line sim.Line, pinned bool) (victim sim.Line, evicted, ok bool) {
	if wi, exists := t.index.Get(line); exists {
		w := &t.ways[wi]
		t.clock++
		w.lru = t.clock
		if pinned && !w.pinned {
			w.pinned = true
			t.pinned++
		}
		return 0, false, true
	}
	var wi int32
	if len(t.free) == 0 {
		vi := -1
		for i := range t.ways {
			w := &t.ways[i]
			if !w.live || w.pinned {
				continue
			}
			if vi < 0 || w.lru < t.ways[vi].lru || (w.lru == t.ways[vi].lru && w.line < t.ways[vi].line) {
				vi = i
			}
		}
		if vi < 0 {
			return 0, false, false // all pinned: table overflow
		}
		victim, evicted = t.ways[vi].line, true
		t.index.Delete(victim)
		wi = int32(vi)
	} else {
		wi = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
	}
	t.clock++
	t.ways[wi] = l1Way{line: line, lru: t.clock, live: true, pinned: pinned}
	t.index.Put(line, wi)
	if pinned {
		t.pinned++
	}
	return victim, evicted, true
}

// unpin clears the pinned flag (commit/abort of the owning transaction).
func (t *l1Table) unpin(line sim.Line) {
	if wi, ok := t.index.Get(line); ok && t.ways[wi].pinned {
		t.ways[wi].pinned = false
		t.pinned--
	}
}

// remove drops line from the table.
func (t *l1Table) remove(line sim.Line) {
	if wi, ok := t.index.Get(line); ok {
		if t.ways[wi].pinned {
			t.pinned--
		}
		t.ways[wi] = l1Way{}
		t.index.Delete(line)
		t.free = append(t.free, wi)
	}
}

func (t *l1Table) len() int { return t.index.Len() }

// l2Table is the shared second-level redirect table: set-associative,
// LRU-replaced, fixed access latency. Entries evicted here are swapped
// out to a software-managed structure in main memory.
//
// Each set is a fixed run of ways in one flat array — with the paper's
// 8-way geometry a lookup is a short linear scan over contiguous
// memory, and nothing on this path allocates. The eviction comparator
// (minimum stamp, ties to the smaller line) matches the map version's,
// keeping victims bit-identical.
type l2Table struct {
	sets  int
	ways  int
	slots []l2Way // sets*ways; set s occupies [s*ways, (s+1)*ways)
	clock uint64
	n     int
}

type l2Way struct {
	line  sim.Line
	stamp uint64
	live  bool
}

func newL2Table(entries, ways int) *l2Table {
	if ways <= 0 || entries < ways {
		panic("redirect: bad second-level table geometry")
	}
	sets := entries / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("redirect: second-level table set count must be a power of two")
	}
	return &l2Table{sets: sets, ways: ways, slots: make([]l2Way, sets*ways)}
}

// reset empties every set, reusing the slot storage.
func (t *l2Table) reset() {
	for i := range t.slots {
		t.slots[i] = l2Way{}
	}
	t.clock = 0
	t.n = 0
}

//suv:hotpath
func (t *l2Table) setOf(line sim.Line) []l2Way {
	s := int(line) & (t.sets - 1)
	return t.slots[s*t.ways : (s+1)*t.ways]
}

//suv:hotpath
func (t *l2Table) contains(line sim.Line) bool {
	set := t.setOf(line)
	for i := range set {
		if set[i].live && set[i].line == line {
			t.clock++
			set[i].stamp = t.clock
			return true
		}
	}
	return false
}

// insert places line, evicting the set's LRU entry when full. The
// returned victim (if any) must be recorded as swapped out to memory.
func (t *l2Table) insert(line sim.Line) (victim sim.Line, evicted bool) {
	set := t.setOf(line)
	t.clock++
	target := -1
	for i := range set {
		if set[i].live && set[i].line == line {
			set[i].stamp = t.clock
			return 0, false
		}
		if !set[i].live && target < 0 {
			target = i
		}
	}
	if target < 0 {
		target = 0
		for i := 1; i < len(set); i++ {
			if set[i].stamp < set[target].stamp || (set[i].stamp == set[target].stamp && set[i].line < set[target].line) {
				target = i
			}
		}
		victim, evicted = set[target].line, true
		t.n--
	}
	set[target] = l2Way{line: line, stamp: t.clock, live: true}
	t.n++
	return victim, evicted
}

func (t *l2Table) remove(line sim.Line) {
	set := t.setOf(line)
	for i := range set {
		if set[i].live && set[i].line == line {
			set[i] = l2Way{}
			t.n--
			return
		}
	}
}

func (t *l2Table) len() int { return t.n }
