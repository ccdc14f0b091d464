// Package mem models the storage side of the simulated CMP: the flat
// value-accurate physical memory, the set-associative write-back caches
// (32KB 4-way L1 per core, 8MB 8-way shared L2 — Table III), a small TLB
// model and the bump allocator that lays out workload heaps and the SUV
// preserved redirect pool.
//
// Values are tracked exactly so that the version-management schemes can
// be tested for atomicity: a committed transaction's writes must all be
// visible, and an aborted transaction must leave memory bit-identical to
// its pre-transaction state.
package mem

import (
	"math/bits"
	"slices"

	"suvtm/internal/sim"
)

// Paged-memory geometry: the host-side backing store is a two-level
// structure of fixed-size pages of 8-byte words, so every simulated
// access is an indexed load/store instead of a map probe. The host page
// size (32 KiB of data) is unrelated to the simulated OS PageBytes.
const (
	memPageWordShift = 12 // 4096 words = 32 KiB of data per host page
	memPageWords     = 1 << memPageWordShift
	memPageWordMask  = memPageWords - 1

	// memDirectPages bounds the directly-indexed page table: word
	// addresses below memDirectPages*memPageWords*8 (32 GiB) — every
	// address the bump allocator can hand out in practice — resolve
	// through a flat slice; pathological addresses beyond it fall back
	// to a map so a stray huge address cannot balloon the table.
	memDirectPages = 1 << 20
)

// memPage is one fixed-size page of backing words plus a written bitmap.
// The bitmap preserves the sparse-memory semantics of the original
// map-backed implementation: Footprint and Snapshot see exactly the
// words ever stored (even if the stored value was zero), not whole
// zero-filled pages.
type memPage struct {
	words   [memPageWords]sim.Word
	written [memPageWords / 64]uint64
}

// Memory is the flat, value-accurate physical memory. Pages are
// zero-filled on demand; unwritten locations read as zero. The data
// plane (Read/Write/ReadLine/WriteLine/CopyLine) is O(1) indexed and
// allocation-free once a page exists.
type Memory struct {
	pages    []*memPage          // page table, indexed by wordIndex >> memPageWordShift
	far      map[uint64]*memPage // overflow for page indices >= memDirectPages
	written  int                 // distinct words ever written
	journal  *WriteLog           // non-nil while StartJournal is recording
	zeroLine [sim.WordsPerLine]sim.Word
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{}
}

// peek returns the page holding word index w, or nil if none exists yet.
//
//suv:hotpath
func (m *Memory) peek(w uint64) *memPage {
	pi := w >> memPageWordShift
	if pi < uint64(len(m.pages)) {
		return m.pages[pi]
	}
	if pi >= memDirectPages {
		return m.far[pi]
	}
	return nil
}

// page returns the page holding word index w, materializing it (and
// growing the page table) on first touch.
func (m *Memory) page(w uint64) *memPage {
	pi := w >> memPageWordShift
	if pi >= memDirectPages {
		if m.far == nil {
			m.far = make(map[uint64]*memPage)
		}
		p := m.far[pi]
		if p == nil {
			p = new(memPage)
			m.far[pi] = p
		}
		return p
	}
	if pi >= uint64(len(m.pages)) {
		grown := make([]*memPage, max(pi+1, uint64(2*len(m.pages))))
		copy(grown, m.pages)
		m.pages = grown
	}
	p := m.pages[pi]
	if p == nil {
		p = new(memPage)
		m.pages[pi] = p
	}
	return p
}

// markWritten sets the written bit for in-page word offset off and keeps
// the footprint counter exact.
func (p *memPage) markWritten(off uint64, written *int) {
	idx, bit := off>>6, uint64(1)<<(off&63)
	if p.written[idx]&bit == 0 {
		p.written[idx] |= bit
		*written++
	}
}

// Read returns the word at addr (aligned down to 8 bytes).
//
//suv:hotpath
func (m *Memory) Read(addr sim.Addr) sim.Word {
	w := addr >> 3
	if p := m.peek(w); p != nil {
		return p.words[w&memPageWordMask]
	}
	return 0
}

// Write stores val at addr (aligned down to 8 bytes).
//
//suv:hotpath
func (m *Memory) Write(addr sim.Addr, val sim.Word) {
	if m.journal != nil {
		m.journal.word(addr, val)
	}
	w := addr >> 3
	p := m.page(w)
	off := w & memPageWordMask
	p.markWritten(off, &m.written)
	p.words[off] = val
}

// ReadLine returns the eight words of line. A cache line never straddles
// a host page (both are power-of-two sized and line-aligned), so this is
// a single indexed copy.
//
//suv:hotpath
func (m *Memory) ReadLine(line sim.Line) [sim.WordsPerLine]sim.Word {
	w := line << (sim.LineShift - 3)
	if p := m.peek(w); p != nil {
		off := w & memPageWordMask
		return [sim.WordsPerLine]sim.Word(p.words[off : off+sim.WordsPerLine])
	}
	return m.zeroLine
}

// WriteLine stores the eight words of line.
//
//suv:hotpath
func (m *Memory) WriteLine(line sim.Line, vals [sim.WordsPerLine]sim.Word) {
	if m.journal != nil {
		m.journal.line(line, vals)
	}
	w := line << (sim.LineShift - 3)
	p := m.page(w)
	off := w & memPageWordMask
	copy(p.words[off:off+sim.WordsPerLine], vals[:])
	m.markLineWritten(p, off)
}

// markLineWritten marks the eight line words at in-page offset off as
// written. The offset is 8-word aligned, so the line's bits occupy one
// byte of a single bitmap word.
//
//suv:hotpath
func (m *Memory) markLineWritten(p *memPage, off uint64) {
	idx, mask := off>>6, uint64(0xFF)<<(off&63)
	if fresh := mask &^ p.written[idx]; fresh != 0 {
		p.written[idx] |= fresh
		m.written += bits.OnesCount64(fresh)
	}
}

// CopyLine copies the contents of line src to line dst. Under SUV this
// models the cache fill that deposits the original line's content at the
// redirected location on the first transactional store (it is the normal
// write-miss fill, not an extra data movement).
//
//suv:hotpath
func (m *Memory) CopyLine(src, dst sim.Line) {
	sw := src << (sim.LineShift - 3)
	sp := m.peek(sw)
	dw := dst << (sim.LineShift - 3)
	dp := m.page(dw)
	doff := dw & memPageWordMask
	if sp == nil {
		for i := range sim.WordsPerLine {
			dp.words[doff+uint64(i)] = 0
		}
	} else {
		soff := sw & memPageWordMask
		copy(dp.words[doff:doff+sim.WordsPerLine], sp.words[soff:soff+sim.WordsPerLine])
	}
	m.markLineWritten(dp, doff)
	if m.journal != nil {
		// Journal the copy as a value line-write: replay does not depend
		// on the source line still holding the same contents.
		m.journal.line(dst, [sim.WordsPerLine]sim.Word(dp.words[doff:doff+sim.WordsPerLine]))
	}
}

// Reset returns the memory to the empty image while keeping the backing
// pages allocated, so a Memory reused across simulations serves the next
// run's writes without growing the host heap. A reset memory is
// indistinguishable from a fresh NewMemory(): every address reads zero
// and the footprint is empty (zero-filled retained pages behave exactly
// like absent ones).
func (m *Memory) Reset() {
	for _, p := range m.pages {
		if p != nil {
			*p = memPage{}
		}
	}
	m.far = nil
	m.written = 0
	m.journal = nil
}

// Footprint returns the number of distinct words ever written, used by
// tests and capacity diagnostics.
func (m *Memory) Footprint() int { return m.written }

// Snapshot returns a copy of the written memory image — exactly the
// words ever stored, not whole zero-filled pages (tests only; the
// simulator itself never copies memory wholesale).
func (m *Memory) Snapshot() map[sim.Addr]sim.Word {
	out := make(map[sim.Addr]sim.Word, m.written)
	m.ForEachWritten(func(addr sim.Addr, val sim.Word) {
		out[addr] = val
	})
	return out
}

// ForEachWritten visits every written word in ascending address order:
// direct pages first, then overflow pages in ascending page order, so
// the visit sequence (and anything derived from it — digests, golden
// memory-image comparisons) is identical on every run.
func (m *Memory) ForEachWritten(fn func(addr sim.Addr, val sim.Word)) {
	emit := func(pi uint64, p *memPage) {
		base := pi << memPageWordShift
		for idx, bm := range p.written {
			for bm != 0 {
				b := uint64(bits.TrailingZeros64(bm))
				bm &= bm - 1
				w := base + uint64(idx)<<6 + b
				fn(sim.Addr(w<<3), p.words[w&memPageWordMask])
			}
		}
	}
	for pi, p := range m.pages {
		if p != nil {
			emit(uint64(pi), p)
		}
	}
	if len(m.far) > 0 {
		farIdx := make([]uint64, 0, len(m.far))
		//suv:orderinsensitive indices are collected then sorted before any page is visited
		for pi := range m.far {
			farIdx = append(farIdx, pi)
		}
		slices.Sort(farIdx)
		for _, pi := range farIdx {
			emit(pi, m.far[pi])
		}
	}
}
