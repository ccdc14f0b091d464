// Package coherence implements the global sharing state of the simulated
// CMP: a full-map bit-vector directory (Table III) over 64-byte lines.
// The directory answers, for any line, who owns it in Modified state and
// which cores hold Shared copies, and performs the bookkeeping for
// GETS/GETM/eviction transitions of the MESI protocol. Conflict
// *detection* (signature checks, NACKs) is layered on top by the HTM
// machine; the directory itself is TM-agnostic.
package coherence

import (
	"math/bits"

	"suvtm/internal/metrics"
	"suvtm/internal/sim"
)

// maxCores bounds the sharer bit-vector width.
const maxCores = 64

// Paged-entry geometry: directory state is a two-level structure of
// fixed-size pages indexed directly by line number, so the per-access
// owner/sharer reads are indexed loads instead of map probes.
const (
	dirPageShift = 10 // 1024 entries per page
	dirPageSize  = 1 << dirPageShift
	dirPageMask  = dirPageSize - 1

	// dirDirectPages bounds the directly-indexed page table (line
	// numbers below 2^27, i.e. an 8 GiB physical space); pathological
	// line numbers beyond it fall back to a map.
	dirDirectPages = 1 << 17
)

// DirStats counts the directory's protocol message mix for the
// observability layer: how a run's coherence traffic splits into read
// fills, write fills, downgrades, invalidations and evictions. Plain
// adds, no timing effect.
type DirStats struct {
	GETS          metrics.Counter // shared fills recorded (AddSharer)
	GETM          metrics.Counter // exclusive fills recorded (SetOwner)
	Downgrades    metrics.Counter // Modified owners demoted to Shared
	Invalidations metrics.Counter // copies invalidated by exclusive fills
	Drops         metrics.Counter // evictions / explicit copy removals
}

// entry is the directory state for one line. The zero value is the
// untracked state (no owner, no sharers): owner is stored +1 so that
// owner==0 means "none" and zero-filled pages need no initialization.
type entry struct {
	sharers uint64 // bit per core with a Shared copy
	ownerP1 int8   // owning core + 1, or 0 for none
}

func (e *entry) owner() int { return int(e.ownerP1) - 1 }
func (e *entry) live() bool { return e.ownerP1 != 0 || e.sharers != 0 }

type dirPage [dirPageSize]entry

// Directory is a full-map directory over all lines ever referenced.
type Directory struct {
	cores   int
	pages   []*dirPage
	far     map[uint64]*dirPage
	tracked int // lines with any cached copy

	stats DirStats // the protocol message mix

	// Retry configures the timeout/retransmission protocol (zero value:
	// disabled); RetryStats accumulates its activity. See retry.go.
	Retry      RetryPolicy
	RetryStats RetryStats
}

// NewDirectory creates a directory for the given core count.
func NewDirectory(cores int) *Directory {
	if cores <= 0 || cores > maxCores {
		panic("coherence: unsupported core count")
	}
	return &Directory{cores: cores}
}

// Reset returns the directory to the untracked state for a (possibly
// different) core count while keeping the entry pages allocated. Because
// the zero entry is the untracked state, a reset directory is
// indistinguishable from a fresh NewDirectory(cores); stats and the
// retry policy are cleared along with the sharing state.
func (d *Directory) Reset(cores int) {
	if cores <= 0 || cores > maxCores {
		panic("coherence: unsupported core count")
	}
	d.cores = cores
	for _, p := range d.pages {
		if p != nil {
			*p = dirPage{}
		}
	}
	d.far = nil
	d.tracked = 0
	d.stats = DirStats{}
	d.Retry = RetryPolicy{}
	d.RetryStats = RetryStats{}
}

// peek returns the entry for line, or nil when the line is untracked
// (its page may not even exist). The pointer stays valid until the next
// mutation of the directory.
//
//suv:hotpath
func (d *Directory) peek(line sim.Line) *entry {
	pi := line >> dirPageShift
	if pi < uint64(len(d.pages)) {
		if p := d.pages[pi]; p != nil {
			return &p[line&dirPageMask]
		}
		return nil
	}
	if pi >= dirDirectPages {
		if p := d.far[pi]; p != nil {
			return &p[line&dirPageMask]
		}
	}
	return nil
}

// at returns the entry for line, materializing its page on first touch.
func (d *Directory) at(line sim.Line) *entry {
	pi := line >> dirPageShift
	if pi >= dirDirectPages {
		if d.far == nil {
			d.far = make(map[uint64]*dirPage)
		}
		p := d.far[pi]
		if p == nil {
			p = new(dirPage)
			d.far[pi] = p
		}
		return &p[line&dirPageMask]
	}
	if pi >= uint64(len(d.pages)) {
		grown := make([]*dirPage, max(pi+1, uint64(2*len(d.pages))))
		copy(grown, d.pages)
		d.pages = grown
	}
	p := d.pages[pi]
	if p == nil {
		p = new(dirPage)
		d.pages[pi] = p
	}
	return &p[line&dirPageMask]
}

// Owner returns the core holding line in Modified state, or -1.
//
//suv:hotpath
func (d *Directory) Owner(line sim.Line) int {
	if e := d.peek(line); e != nil {
		return e.owner()
	}
	return -1
}

// Sharers returns the bit-vector of cores holding Shared copies.
//
//suv:hotpath
func (d *Directory) Sharers(line sim.Line) uint64 {
	if e := d.peek(line); e != nil {
		return e.sharers
	}
	return 0
}

// SharerCount returns the number of cores holding Shared copies without
// allocating.
//
//suv:hotpath
func (d *Directory) SharerCount(line sim.Line) int {
	return bits.OnesCount64(d.Sharers(line))
}

// HolderCount returns the number of cores holding any copy of line —
// the Shared sharers plus a Modified owner when present. Conflict
// forensics records it as the line's contention degree at conflict
// time.
//
//suv:hotpath
func (d *Directory) HolderCount(line sim.Line) int {
	e := d.peek(line)
	if e == nil {
		return 0
	}
	n := bits.OnesCount64(e.sharers)
	if e.owner() >= 0 {
		n++
	}
	return n
}

// ForEachSharer calls fn for every sharer core id in ascending order.
// The sharer set is read once up front, so fn may mutate the directory
// (Drop, SetOwner) without disturbing the iteration.
//
//suv:hotpath
func (d *Directory) ForEachSharer(line sim.Line, fn func(core int)) {
	s := d.Sharers(line)
	for s != 0 {
		fn(bits.TrailingZeros64(s))
		s &= s - 1
	}
}

// AppendSharers appends the sharer core ids in ascending order to buf
// and returns it — the zero-alloc variant of SharerList for callers
// holding a reusable buffer.
func (d *Directory) AppendSharers(buf []int, line sim.Line) []int {
	s := d.Sharers(line)
	for s != 0 {
		buf = append(buf, bits.TrailingZeros64(s))
		s &= s - 1
	}
	return buf
}

// SharerList returns the sharer core ids in ascending order. It
// allocates a fresh slice per call; hot paths should use ForEachSharer
// or AppendSharers instead.
func (d *Directory) SharerList(line sim.Line) []int {
	var out []int
	return d.AppendSharers(out, line)
}

// AddSharer records a GETS fill: core now holds line Shared. A Modified
// owner (core itself or a remote one) is downgraded to a sharer — its
// cache keeps a Shared copy after servicing the read, per MESI.
//
//suv:hotpath
func (d *Directory) AddSharer(line sim.Line, core int) {
	d.stats.GETS.Inc()
	e := d.at(line)
	if !e.live() {
		d.tracked++
	}
	if e.ownerP1 != 0 {
		e.sharers |= 1 << uint(e.owner())
		e.ownerP1 = 0
	}
	e.sharers |= 1 << uint(core)
}

// SetOwner records a GETM fill: core now holds line Modified and every
// other copy is invalidated. It returns how many remote copies were
// invalidated (the previous owner and/or sharers, excluding core
// itself) without materializing the list — the request path only needs
// the count for accounting, and building a slice here was the last
// allocating call on the directory hot path.
//
//suv:hotpath
func (d *Directory) SetOwner(line sim.Line, core int) int {
	e := d.at(line)
	if !e.live() {
		d.tracked++
	}
	invalidated := 0
	if e.ownerP1 != 0 && e.owner() != core {
		invalidated++
	}
	invalidated += bits.OnesCount64(e.sharers &^ (1 << uint(core)))
	d.stats.GETM.Inc()
	d.stats.Invalidations.Add(uint64(invalidated))
	e.ownerP1 = int8(core) + 1
	e.sharers = 0
	return invalidated
}

// Downgrade converts core's Modified ownership of line into a Shared
// copy (a remote GETS hit the owner). No-op if core is not the owner.
func (d *Directory) Downgrade(line sim.Line, core int) {
	e := d.peek(line)
	if e == nil || e.owner() != core {
		return
	}
	d.stats.Downgrades.Inc()
	e.ownerP1 = 0
	e.sharers |= 1 << uint(core)
}

// Drop removes core's copy of line (eviction or invalidation).
func (d *Directory) Drop(line sim.Line, core int) {
	e := d.peek(line)
	if e == nil || !e.live() {
		return
	}
	d.stats.Drops.Inc()
	if e.owner() == core {
		e.ownerP1 = 0
	}
	e.sharers &^= 1 << uint(core)
	if !e.live() {
		d.tracked--
	}
}

// Stats returns the protocol message mix.
func (d *Directory) Stats() DirStats { return d.stats }

// HoldsModified reports whether core owns line in Modified state.
func (d *Directory) HoldsModified(line sim.Line, core int) bool {
	return d.Owner(line) == core
}

// Tracked returns the number of lines with any cached copy (tests).
func (d *Directory) Tracked() int { return d.tracked }
