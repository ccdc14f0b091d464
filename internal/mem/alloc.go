package mem

import (
	"fmt"

	"suvtm/internal/sim"
)

// PageBytes is the allocation granularity of the simulated OS and of the
// SUV preserved redirect pool (Figure 3 uses a 7-bit in-page line offset:
// 128 lines x 64 bytes = 8 KiB pages).
const PageBytes = 128 * sim.LineBytes

// Allocator is a bump allocator over the simulated physical address
// space. It lays out workload heaps, per-thread private regions (stacks,
// undo logs) and the SUV preserved pool in disjoint regions.
type Allocator struct {
	next sim.Addr
	top  sim.Addr
}

// NewAllocator creates an allocator over [base, base+size).
func NewAllocator(base sim.Addr, size uint64) *Allocator {
	return &Allocator{next: base, top: base + size}
}

// Reset rewinds the allocator to a fresh [base, base+size) region,
// making it equivalent to NewAllocator(base, size). Regions handed out
// before the reset must no longer be used.
func (a *Allocator) Reset(base sim.Addr, size uint64) {
	a.next, a.top = base, base+size
}

// Alloc returns the base address of a fresh region of size bytes aligned
// to align (a power of two). It panics when the address space is
// exhausted, which indicates a mis-sized workload, not a runtime error.
func (a *Allocator) Alloc(size uint64, align uint64) sim.Addr {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: bad alignment %d", align))
	}
	base := (a.next + align - 1) &^ (align - 1)
	if base+size > a.top {
		panic(fmt.Sprintf("mem: out of simulated memory (want %d bytes at %#x, top %#x)", size, base, a.top))
	}
	a.next = base + size
	return base
}

// AllocLines allocates n cache lines and returns the first line number.
func (a *Allocator) AllocLines(n int) sim.Line {
	base := a.Alloc(uint64(n)*sim.LineBytes, sim.LineBytes)
	return sim.LineOf(base)
}

// AllocPage allocates one page and returns its base address.
func (a *Allocator) AllocPage() sim.Addr {
	return a.Alloc(PageBytes, PageBytes)
}

// Next returns the next free address.
func (a *Allocator) Next() sim.Addr { return a.next }
