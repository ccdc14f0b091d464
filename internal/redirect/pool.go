package redirect

import (
	"suvtm/internal/mem"
	"suvtm/internal/sim"
)

// Pool is the preserved redirect pool: a reserved memory region from
// which SUV allocates the redirected locations of transactional stores.
// Pages are claimed from the simulated address space on demand
// (Section III: "SUV-TM automatically allocates a page in the preserved
// redirect pool"); lines freed by committed redirect-backs or aborted
// transient adds are recycled through a free list.
//
// Pages are claimed in groups of poolGroupPages, each page placed at a
// PoolInterleave-aligned address so a group spreads over one full 1 MB
// L2 way-size period, and line handout round-robins across the group's
// pages. The skipped alignment padding is dead address space (the
// simulated memory is sparse). The layout is fixed because it decides
// the simulated address of every redirected line, and with it the L2
// sets and directory entries those lines use: the golden outcome table
// and the suvbench digests pin it, so changing it is a model change.
type Pool struct {
	alloc     *mem.Allocator
	free      []sim.Line
	group     []sim.Line // base lines of the current page group
	groupIdx  int        // next handout slot in the group rotation
	linesLeft int
	pages     uint64
	// exhausted simulates preserved-pool exhaustion (the fault
	// injector's PoolExhaust window): allocations still succeed — the OS
	// reclamation path always finds a line eventually — but the caller
	// is told the allocation went through software reclamation so it can
	// charge the stall and count the graceful degradation.
	exhausted bool
	reclaims  uint64
}

// PoolInterleave is the placement alignment of preserved-pool pages: 64
// KB, one sixteenth of the default L2's 1 MB way-size. See the type
// comment.
const PoolInterleave = 64 << 10

// poolGroupPages is how many interleaved pages one group claims — a
// full 16-page period of the 1 MB way-size.
const poolGroupPages = 16

// NewPool creates a pool drawing pages from alloc.
func NewPool(alloc *mem.Allocator) *Pool {
	return &Pool{alloc: alloc}
}

// Reset re-arms the pool on a (typically rewound) allocator, dropping
// every page claim and free line of the previous run. A reset pool is
// equivalent to NewPool(alloc) except that the free-list storage is
// retained.
func (p *Pool) Reset(alloc *mem.Allocator) {
	p.alloc = alloc
	p.free = p.free[:0]
	p.group = p.group[:0]
	p.groupIdx = 0
	p.linesLeft = 0
	p.pages = 0
	p.exhausted = false
	p.reclaims = 0
}

// Alloc returns a fresh pool line, reusing freed lines first and
// claiming a new page group when the current one is exhausted. Handout
// rotates across the group's interleaved pages, so consecutive
// allocations land on different pages.
func (p *Pool) Alloc() sim.Line {
	if p.exhausted {
		p.reclaims++
	}
	if n := len(p.free); n > 0 {
		line := p.free[n-1]
		p.free = p.free[:n-1]
		return line
	}
	if p.linesLeft == 0 {
		p.group = p.group[:0]
		for i := 0; i < poolGroupPages; i++ {
			base := p.alloc.Alloc(mem.PageBytes, PoolInterleave)
			p.group = append(p.group, sim.LineOf(base))
			p.pages++
		}
		p.groupIdx = 0
		p.linesLeft = poolGroupPages * (mem.PageBytes / sim.LineBytes)
	}
	k := p.groupIdx
	p.groupIdx++
	p.linesLeft--
	return p.group[k%poolGroupPages] + sim.Line(k/poolGroupPages)
}

// Release returns a pool line to the free list.
func (p *Pool) Release(line sim.Line) {
	p.free = append(p.free, line)
}

// Pages returns the number of pages ever claimed.
func (p *Pool) Pages() uint64 { return p.pages }

// FreeLines returns the current free-list length (tests).
func (p *Pool) FreeLines() int { return len(p.free) }

// SetExhausted marks (or unmarks) the pool exhausted; see the field
// comment.
func (p *Pool) SetExhausted(on bool) { p.exhausted = on }

// Exhausted reports whether the pool is in the exhausted regime.
func (p *Pool) Exhausted() bool { return p.exhausted }

// Reclaims returns the number of allocations served through software
// reclamation while the pool was exhausted.
func (p *Pool) Reclaims() uint64 { return p.reclaims }
