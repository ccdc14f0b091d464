package mem

import "suvtm/internal/sim"

// TLB is a small fully-associative translation buffer. SUV's first-level
// redirect entries do not store full redirected addresses; they store a
// TLB index plus an in-page offset (Figure 3), so the TLB must pin the
// pages of the preserved redirect pool while entries reference them.
//
// The simulator runs with an identity virtual-to-physical mapping, so the
// TLB here exists to model the index space of redirect entries and to
// count translation traffic; it never changes an address.
type TLB struct {
	entries []sim.Addr // page base addresses, LRU-ordered (front = MRU)
	size    int
	hits    uint64
	misses  uint64
}

// NewTLB creates a TLB with the given number of entries.
func NewTLB(size int) *TLB {
	return &TLB{size: size}
}

// IndexOf returns the TLB slot holding the page of addr, inserting it on
// a miss (LRU replacement). The boolean reports whether it was a hit.
func (t *TLB) IndexOf(addr sim.Addr) (int, bool) {
	page := addr &^ (PageBytes - 1)
	for i, p := range t.entries {
		if p == page {
			t.hits++
			// Move to front (MRU).
			copy(t.entries[1:i+1], t.entries[:i])
			t.entries[0] = page
			return 0, true
		}
	}
	t.misses++
	if len(t.entries) < t.size {
		t.entries = append([]sim.Addr{page}, t.entries...)
	} else {
		copy(t.entries[1:], t.entries[:len(t.entries)-1])
		t.entries[0] = page
	}
	return 0, false
}

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }
