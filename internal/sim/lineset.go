package sim

// lineSetSmallCap is the inline tier's capacity. Most transactions touch
// only a handful of distinct lines (the paper's Table IV footprints), so
// the common case is a short linear scan with no hashing at all.
const lineSetSmallCap = 16

// lineSetMinTable is the open-addressed tier's initial capacity (slots).
const lineSetMinTable = 64

// LineSet is a precise set of cache-line numbers tuned for the HTM hot
// path. Small sets (up to lineSetSmallCap distinct lines) live in an
// inline array scanned linearly; the moment a set spills past that, the
// inline entries migrate into an open-addressed, linearly-probed hash
// table and membership becomes a single probe. Clear is a flash
// operation (epoch bump), so begin, commit and abort never free or
// reallocate storage — after warm-up the set performs zero heap
// allocations.
//
// The zero value is NOT ready to use; call NewLineSet.
type LineSet struct {
	small   [lineSetSmallCap]Line
	nSmall  int
	spilled bool // this epoch's members live in the table, not in small

	keys  []Line   // overflow slots
	marks []uint32 // slot live iff marks[i] == epoch
	epoch uint32
	mask  uint64 // len(keys) - 1

	n int // total distinct lines
}

// NewLineSet returns an empty line set. The hash table is lazily
// materialized on the first spill past the inline tier.
func NewLineSet() *LineSet {
	return &LineSet{epoch: 1}
}

// Len returns the number of distinct lines in the set.
func (s *LineSet) Len() int { return s.n }

// Has reports membership.
//
//suv:hotpath
func (s *LineSet) Has(line Line) bool {
	if s.spilled {
		return s.tableHas(line)
	}
	for i := 0; i < s.nSmall; i++ {
		if s.small[i] == line {
			return true
		}
	}
	return false
}

// Add inserts line; duplicates are ignored.
//
//suv:hotpath
func (s *LineSet) Add(line Line) {
	if s.Has(line) {
		return
	}
	if !s.spilled {
		if s.nSmall < lineSetSmallCap {
			s.small[s.nSmall] = line
			s.nSmall++
			s.n++
			return
		}
		// Spill: migrate the inline tier, then fall through to the table.
		s.spilled = true
		for i := 0; i < s.nSmall; i++ {
			s.tableAdd(s.small[i])
		}
	}
	s.tableAdd(line)
	s.n++
}

// Clear empties the set in O(1): the inline tier resets its length and
// the table's live marks are invalidated by bumping the epoch.
//
//suv:hotpath
func (s *LineSet) Clear() {
	s.nSmall = 0
	s.spilled = false
	s.n = 0
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: stale marks could alias
		clear(s.marks)
		s.epoch = 1
	}
}

// ForEach visits every line: insertion order while inline, slot order
// after a spill. fn must not mutate the set.
func (s *LineSet) ForEach(fn func(Line)) {
	if !s.spilled {
		for i := 0; i < s.nSmall; i++ {
			fn(s.small[i])
		}
		return
	}
	for i, m := range s.marks {
		if m == s.epoch {
			fn(s.keys[i])
		}
	}
}

// MinCommon returns the smallest line present in both sets, or ok=false
// when they are disjoint. Taking the minimum makes the witness
// deterministic regardless of either set's iteration order, so conflict
// forensics can attribute a signature-level intersection to a concrete
// line without perturbing replay stability.
func (s *LineSet) MinCommon(o *LineSet) (Line, bool) {
	if o == nil || s == nil {
		return 0, false
	}
	// Scan the smaller set, probe the larger.
	a, b := s, o
	if b.n < a.n {
		a, b = b, a
	}
	var best Line
	found := false
	a.ForEach(func(l Line) {
		if b.Has(l) && (!found || l < best) {
			best, found = l, true
		}
	})
	return best, found
}

// Clone returns an independent copy (nested-transaction snapshots).
func (s *LineSet) Clone() *LineSet {
	out := NewLineSet()
	s.ForEach(out.Add)
	return out
}

// lineSetHash spreads line over the table (Fibonacci multiplicative
// hashing).
func lineSetHash(line Line) uint64 {
	return line * 0x9E3779B97F4A7C15
}

//suv:hotpath
func (s *LineSet) tableHas(line Line) bool {
	if len(s.keys) == 0 {
		return false
	}
	i := lineSetHash(line) & s.mask
	for s.marks[i] == s.epoch {
		if s.keys[i] == line {
			return true
		}
		i = (i + 1) & s.mask
	}
	return false
}

// tableAdd inserts a line known to be absent into the table, growing it
// at 3/4 load. Callers maintain s.n, which (post-spill) equals the
// table's live count — during the migration loop it over-counts by the
// lines not yet moved, which only makes the growth check conservative.
//
//suv:hotpath
func (s *LineSet) tableAdd(line Line) {
	live := s.n
	if len(s.keys) == 0 || live+1 > 3*len(s.keys)/4 {
		s.grow()
	}
	i := lineSetHash(line) & s.mask
	for s.marks[i] == s.epoch {
		i = (i + 1) & s.mask
	}
	s.keys[i] = line
	s.marks[i] = s.epoch
}

// grow doubles the table and rehashes its live slots. This is the only
// allocating path; once a core has seen its largest write set the table
// never grows again.
func (s *LineSet) grow() {
	newCap := lineSetMinTable
	if len(s.keys) > 0 {
		newCap = 2 * len(s.keys)
	}
	oldKeys, oldMarks := s.keys, s.marks
	s.keys = make([]Line, newCap)
	s.marks = make([]uint32, newCap)
	s.mask = uint64(newCap - 1)
	oldEpoch := s.epoch
	s.epoch = 1
	for i, m := range oldMarks {
		if m == oldEpoch {
			j := lineSetHash(oldKeys[i]) & s.mask
			for s.marks[j] == s.epoch {
				j = (j + 1) & s.mask
			}
			s.keys[j] = oldKeys[i]
			s.marks[j] = s.epoch
		}
	}
}
