package redirect

import (
	"math/bits"

	"suvtm/internal/mem"
	"suvtm/internal/sim"
)

// Geometry reproduces the redirect-entry bit layout of Figure 3
// (cactimodel.PaperSectionVC sizes Section V-C's per-core storage with
// it). A first-level entry does not store full addresses: the original
// address is reconstructed from the stored L1 data-cache set-index bits
// plus the cache tag, and the redirected address from a TLB index (the
// preserved-pool page) plus an in-page line offset.
type Geometry struct {
	L1IndexBits  int // L1 data-cache set-index bits stored in the entry
	StateBits    int // global + valid (Table II)
	TLBIndexBits int // index into the TLB entry holding the pool page
	OffsetBits   int // in-page line offset
}

// NewGeometry derives the entry layout from the L1 data-cache geometry
// and the TLB size.
func NewGeometry(l1 mem.CacheConfig, tlbEntries int) Geometry {
	return Geometry{
		L1IndexBits:  bits.Len(uint(l1.Sets()) - 1),
		StateBits:    2,
		TLBIndexBits: bits.Len(uint(tlbEntries) - 1),
		OffsetBits:   bits.Len(uint(mem.PageBytes/sim.LineBytes) - 1),
	}
}

// EntryBits returns the total first-level entry size in bits (22 in the
// paper's configuration: 7-bit L1 index + 2-bit state + 6-bit TLB index +
// 7-bit in-page offset).
func (g Geometry) EntryBits() int {
	return g.L1IndexBits + g.StateBits + g.TLBIndexBits + g.OffsetBits
}
