package redirect

import (
	"suvtm/internal/mem"
	"suvtm/internal/sim"
)

// Config sizes the redirect machinery (Table III defaults are in
// DefaultConfig).
type Config struct {
	Cores          int
	L1Entries      int        // first-level table entries per core (512)
	L2Entries      int        // shared second-level table entries (16384)
	L2Ways         int        // second-level associativity (8)
	L2Latency      sim.Cycles // second-level access latency (10)
	MemLatency     sim.Cycles // software search of swapped-out entries (150)
	MisspecPenalty sim.Cycles // squash/re-execute after wrong speculation (20)

	// DisableRedirectBack turns off the Section IV-A optimization that
	// reclaims original addresses (every re-redirect chains to a fresh
	// pool line instead). Used by the ablation study to quantify how much
	// the optimization bounds table growth.
	DisableRedirectBack bool
}

// DefaultConfig returns the paper's Table III redirect configuration for
// the given core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:          cores,
		L1Entries:      512,
		L2Entries:      16384,
		L2Ways:         8,
		L2Latency:      10,
		MemLatency:     150,
		MisspecPenalty: 20,
	}
}

// journalKind tags per-transaction journal records.
type journalKind uint8

const (
	journalAdd   journalKind = iota // created a transient-add entry
	journalClaim                    // transiently deleted (claimed) a global entry
)

// journalRec is one record of the per-transaction entry journal. The
// journal makes commit and abort single flash operations over the
// transaction's transient entries.
type journalRec struct {
	kind journalKind
	line sim.Line
}

// StoreOutcome describes what a transactional store did to the redirect
// state.
type StoreOutcome struct {
	Target       sim.Line   // where the data must be written
	NewEntry     bool       // a transient-add entry was created
	RedirectBack bool       // a globally-valid entry was transiently deleted
	Chained      bool       // re-redirected an already-redirected line to a fresh pool line
	FillFrom     sim.Line   // line whose contents must seed Target
	NeedFill     bool       // Target holds stale data and needs the fill copy
	ExtraLatency sim.Cycles // table-maintenance latency (overflow handling)
	Overflowed   bool       // the first-level table could not pin the entry
	PoolReclaim  bool       // the pool line came from software reclamation (pool exhausted)
}

// LookupOutcome describes a timing lookup of the redirect table.
type LookupOutcome struct {
	Target        sim.Line // resolved physical line for the requesting core
	Found         bool     // a mapping (transient or global) applies
	Level         Level
	Latency       sim.Cycles
	Misspeculated bool // speculative use of the original address was wrong
}

// CommitEvent tells the caller how to update the redirect summary
// signature after an outermost commit (Figure 4(e) step 2). A replaced
// mapping (chained re-redirect) changes no summary state: the original
// address stays redirected.
type CommitEvent struct {
	Line    sim.Line
	Added   bool // line became redirected: Summary.Add
	Removed bool // line is no longer redirected: Summary.Delete
}

// globalEntry is a committed (global-valid, Table II) mapping. ClaimedBy
// is the core whose open transaction has transiently deleted it
// (redirect-back), or -1.
type globalEntry struct {
	pool      sim.Line
	claimedBy int
}

// transEntry is one core's private transient entry for a line: either a
// transient add (global=0, valid=1: writes go to pool) or a transient
// delete (global=1, valid=0: writes go back to the original address).
type transEntry struct {
	state State
	pool  sim.Line // transient add: private pool target
}

// Redirect is the machine-wide redirect state: the committed global map
// (physically spread over the two table levels and the swapped-out
// software structure), per-core private transient entries, the preserved
// pool, and per-core transaction journals with nesting support.
//
// Transient entries are core-private — they live in the owning core's
// first-level table — so concurrent (lazy, invisible) transactions may
// each redirect the same line privately; conflict resolution decides
// which one publishes at commit.
type Redirect struct {
	cfg      Config
	global   sim.LineMap[globalEntry]
	trans    []sim.LineMap[transEntry]
	pool     *Pool
	l1       []*l1Table
	l2       *l2Table
	inMemory sim.LineMap[struct{}] // global-entry lines resident only in the software structure

	journals   [][]journalRec
	frameMarks [][]int
	overflow   []bool // current transaction overflowed the first-level table
	eventsBuf  []CommitEvent

	// pressured simulates first-level entry pressure (the fault
	// injector's RedirectPressure window): pin refuses every insertion,
	// as if all slots were already pinned, forcing transactions through
	// the degenerated software-structure overflow path.
	pressured bool

	// Mutation signals for a machine that skips repeated lookups (see
	// Version and Watch): mapGen counts changes to the committed map,
	// and while watching is set every line whose committed mapping or
	// table residency changes is appended to touched.
	mapGen   uint64
	watching bool
	touched  []sim.Line
}

// New creates the redirect state, drawing pool pages from alloc.
func New(cfg Config, alloc *mem.Allocator) *Redirect {
	r := &Redirect{
		cfg:  cfg,
		pool: NewPool(alloc),
		l2:   newL2Table(cfg.L2Entries, cfg.L2Ways),
	}
	r.trans = make([]sim.LineMap[transEntry], cfg.Cores)
	r.l1 = make([]*l1Table, cfg.Cores)
	for i := range r.l1 {
		r.l1[i] = newL1Table(cfg.L1Entries)
	}
	r.journals = make([][]journalRec, cfg.Cores)
	r.frameMarks = make([][]int, cfg.Cores)
	r.overflow = make([]bool, cfg.Cores)
	return r
}

// Reset rebuilds the redirect state for cfg on a (typically rewound)
// allocator, reusing the previous run's table storage wherever the
// geometry still matches and reallocating only what changed. A reset
// Redirect behaves identically to New(cfg, alloc) — the tables, pool,
// journals and summary-relevant maps all return to their freshly
// constructed state.
func (r *Redirect) Reset(cfg Config, alloc *mem.Allocator) {
	r.cfg = cfg
	r.pool.Reset(alloc)
	if r.l2.ways == cfg.L2Ways && r.l2.sets*r.l2.ways == cfg.L2Entries {
		r.l2.reset()
	} else {
		r.l2 = newL2Table(cfg.L2Entries, cfg.L2Ways)
	}
	if len(r.l1) == cfg.Cores {
		for i := range r.trans {
			r.trans[i].Clear()
			r.journals[i] = r.journals[i][:0]
			r.frameMarks[i] = r.frameMarks[i][:0]
			r.overflow[i] = false
		}
	} else {
		r.trans = make([]sim.LineMap[transEntry], cfg.Cores)
		r.l1 = make([]*l1Table, cfg.Cores)
		r.journals = make([][]journalRec, cfg.Cores)
		r.frameMarks = make([][]int, cfg.Cores)
		r.overflow = make([]bool, cfg.Cores)
	}
	for i, t := range r.l1 {
		if t != nil && t.capacity == cfg.L1Entries {
			t.reset()
		} else {
			r.l1[i] = newL1Table(cfg.L1Entries)
		}
	}
	r.global.Clear()
	r.inMemory.Clear()
	r.eventsBuf = r.eventsBuf[:0]
	r.pressured = false
	r.mapGen = 0
	r.Watch(false)
}

// Config returns the configuration.
func (r *Redirect) Config() Config { return r.cfg }

// Pool exposes the preserved pool (stats, tests).
func (r *Redirect) Pool() *Pool { return r.pool }

// GlobalTarget returns the committed mapping for line (ok=false if the
// line is not redirected).
func (r *Redirect) GlobalTarget(line sim.Line) (sim.Line, bool) {
	g, ok := r.global.Get(line)
	return g.pool, ok
}

// TransientState returns the state of core's private entry for line
// (Free when none exists).
func (r *Redirect) TransientState(core int, line sim.Line) State {
	if te, ok := r.trans[core].Get(line); ok {
		return te.state
	}
	return Free
}

// EntryCount returns the number of live committed mappings.
func (r *Redirect) EntryCount() int { return r.global.Len() }

// TransientCount returns core's live transient entries (tests).
func (r *Redirect) TransientCount(core int) int { return r.trans[core].Len() }

// SwappedOut returns the number of entry lines resident only in memory.
func (r *Redirect) SwappedOut() int { return r.inMemory.Len() }

// Resolve returns the physical line an access by core to line must use,
// with no timing side effects: the core's own transient entry if any,
// else the committed mapping. Pass core = -1 for the architectural
// (post-commit) view.
//
//suv:hotpath
func (r *Redirect) Resolve(core int, line sim.Line) sim.Line {
	if core >= 0 {
		if te, ok := r.trans[core].Get(line); ok {
			if te.state == TransientAdd {
				return te.pool
			}
			return line // TransientDelete: owner sees the original
		}
	}
	if g, ok := r.global.Get(line); ok {
		return g.pool
	}
	return line
}

// Lookup performs a timing-accurate redirect-table walk for core's access
// to line. It should be called only when the summary signature (or the
// core's write signature) indicated a possible redirection.
//
//suv:hotpath
func (r *Redirect) Lookup(core int, line sim.Line) LookupOutcome {
	target := r.Resolve(core, line)
	isTrans := r.trans[core].Has(line)
	isGlobal := r.global.Has(line)
	found := isTrans || isGlobal
	if r.l1[core].contains(line) {
		return LookupOutcome{Target: target, Found: found, Level: LevelL1}
	}
	if r.l2.contains(line) {
		r.fillL1(core, line, false)
		return LookupOutcome{Target: target, Found: found, Level: LevelL2, Latency: r.cfg.L2Latency}
	}
	// Both hardware levels missed.
	if isTrans {
		// A core's own transient entries live in its first-level table by
		// construction; reaching here means the table overflowed and the
		// entry sits in the software-managed structure. Cache it in the
		// shared level so repeated touches pay second-level latency only.
		r.fillL2(line)
		return LookupOutcome{Target: target, Found: true, Level: LevelMemory,
			Latency: r.cfg.MemLatency}
	}
	// SUV speculatively uses the original address while the remaining
	// search proceeds off the critical path (Section IV-A); when no entry
	// exists the speculation is correct and the whole confirmation
	// latency is hidden.
	if !isGlobal {
		return LookupOutcome{Target: target, Level: LevelAbsent}
	}
	if r.inMemory.Has(line) {
		// The entry really is swapped out: the speculative access to the
		// original address was wrong and must be squashed.
		r.inMemory.Delete(line)
		r.fillL2(line)
		r.fillL1(core, line, false)
		return LookupOutcome{Target: target, Found: true, Level: LevelMemory,
			Latency: r.cfg.MemLatency + r.cfg.MisspecPenalty, Misspeculated: true}
	}
	// The entry exists but sits in another core's first-level table
	// (table coherence forwards it at roughly second-level cost).
	r.fillL2(line)
	r.fillL1(core, line, false)
	return LookupOutcome{Target: target, Found: true, Level: LevelL2, Latency: r.cfg.L2Latency}
}

// TxStore applies the redirect-state transition for a transactional store
// by core to line, journaling it for flash commit/abort:
//
//   - no mapping: create a private transient add (line -> fresh pool line),
//     seeded by the normal write-miss fill;
//   - committed mapping, original space unclaimed: redirect back — claim
//     the entry, write at the original address (Figure 4(d));
//   - committed mapping already claimed by another transaction: chain to
//     a fresh pool line (both writers stay physically disjoint; commit
//     arbitration decides who publishes);
//   - own transient entry: reuse its target.
func (r *Redirect) TxStore(core int, line sim.Line) StoreOutcome {
	if len(r.frameMarks[core]) == 0 {
		panic("redirect: TxStore outside a transaction frame")
	}
	if te, ok := r.trans[core].Get(line); ok {
		if te.state == TransientAdd {
			return StoreOutcome{Target: te.pool}
		}
		return StoreOutcome{Target: line}
	}
	g := r.global.Ref(line)
	switch {
	case g == nil:
		poolLine := r.pool.Alloc()
		r.trans[core].Put(line, transEntry{state: TransientAdd, pool: poolLine})
		r.journals[core] = append(r.journals[core], journalRec{kind: journalAdd, line: line})
		out := StoreOutcome{Target: poolLine, NewEntry: true, FillFrom: line, NeedFill: true,
			PoolReclaim: r.pool.Exhausted()}
		r.pin(core, line, &out)
		return out

	case !r.cfg.DisableRedirectBack && (g.claimedBy < 0 || g.claimedBy == core):
		// Redirect-back (Figure 4(d)): the variable currently lives at
		// g.pool; the new version goes back to the original address.
		g.claimedBy = core
		r.mapGen++
		fillFrom := g.pool
		r.trans[core].Put(line, transEntry{state: TransientDelete})
		r.journals[core] = append(r.journals[core], journalRec{kind: journalClaim, line: line})
		out := StoreOutcome{Target: line, RedirectBack: true, FillFrom: fillFrom, NeedFill: true}
		r.pin(core, line, &out)
		return out

	default:
		// The original space is claimed by another in-flight transaction:
		// chain to a fresh pool line.
		poolLine := r.pool.Alloc()
		fillFrom := g.pool
		r.trans[core].Put(line, transEntry{state: TransientAdd, pool: poolLine})
		r.journals[core] = append(r.journals[core], journalRec{kind: journalAdd, line: line})
		out := StoreOutcome{Target: poolLine, NewEntry: true, Chained: true, FillFrom: fillFrom, NeedFill: true,
			PoolReclaim: r.pool.Exhausted()}
		r.pin(core, line, &out)
		return out
	}
}

// pin places the entry in core's first-level table, pinned for the
// duration of the transaction; on overflow the entry lives in the shared
// levels and the store pays the second-level latency.
func (r *Redirect) pin(core int, line sim.Line, out *StoreOutcome) {
	ok := false
	if !r.pressured {
		var victim sim.Line
		var evicted bool
		victim, evicted, ok = r.l1[core].insert(line, true)
		if evicted {
			r.note(victim)
			r.spillToL2(victim)
		}
	}
	if !ok {
		r.overflow[core] = true
		out.Overflowed = true
		out.ExtraLatency += r.cfg.L2Latency
	}
}

// BeginFrame opens a (possibly nested) transaction frame for core.
func (r *Redirect) BeginFrame(core int) {
	r.frameMarks[core] = append(r.frameMarks[core], len(r.journals[core]))
	if len(r.frameMarks[core]) == 1 {
		r.overflow[core] = false
	}
}

// InFrame reports whether core has an open frame (tests).
func (r *Redirect) InFrame(core int) bool { return len(r.frameMarks[core]) > 0 }

// CommitFrame closes core's innermost frame. Committing a nested frame
// merges its journal into the parent (entries stay transient until the
// outermost commit). Committing the outermost frame flash-converts every
// journaled entry per Figure 4(e) and returns the summary-signature
// events.
func (r *Redirect) CommitFrame(core int) []CommitEvent {
	marks := r.frameMarks[core]
	if len(marks) == 0 {
		panic("redirect: CommitFrame without a frame")
	}
	if len(marks) > 1 {
		r.frameMarks[core] = marks[:len(marks)-1]
		return nil
	}
	events := r.applyCommit(core, r.journals[core])
	r.journals[core] = r.journals[core][:0]
	r.frameMarks[core] = marks[:0]
	r.overflow[core] = false
	return events
}

// CommitOpenFrame publishes the innermost frame's journal immediately
// (open nesting): its transient entries take the Figure 4(e)
// transitions now, while outer frames stay speculative.
func (r *Redirect) CommitOpenFrame(core int) []CommitEvent {
	marks := r.frameMarks[core]
	if len(marks) == 0 {
		panic("redirect: CommitOpenFrame without a frame")
	}
	mark := marks[len(marks)-1]
	events := r.applyCommit(core, r.journals[core][mark:])
	r.journals[core] = r.journals[core][:mark]
	r.frameMarks[core] = marks[:len(marks)-1]
	return events
}

// applyCommit runs the Figure 4(e) transitions over journal records.
// The returned slice aliases a buffer owned by the Redirect and is
// valid until the next commit; callers consume it immediately.
//
//suv:hotpath
func (r *Redirect) applyCommit(core int, journal []journalRec) []CommitEvent {
	events := r.eventsBuf[:0]
	for _, rec := range journal {
		te, ok := r.trans[core].Get(rec.line)
		if !ok {
			continue // unwound by a partial abort
		}
		switch rec.kind {
		case journalAdd:
			if g := r.global.Ref(rec.line); g != nil {
				// Chained re-redirect: the new mapping replaces the old;
				// the line stays redirected, so no summary change.
				r.pool.Release(g.pool)
				g.pool = te.pool
				g.claimedBy = -1
			} else {
				r.global.Put(rec.line, globalEntry{pool: te.pool, claimedBy: -1})
				events = append(events, CommitEvent{Line: rec.line, Added: true})
			}
			r.mapGen++
			r.note(rec.line)
			r.l1[core].unpin(rec.line)
		case journalClaim:
			if g, had := r.global.Get(rec.line); had && g.claimedBy == core {
				r.pool.Release(g.pool)
				r.dropGlobal(rec.line)
				events = append(events, CommitEvent{Line: rec.line, Removed: true})
			}
		}
		r.trans[core].Delete(rec.line)
	}
	r.eventsBuf = events
	return events
}

// AbortFrame unwinds core's innermost frame per Figure 4(f): transient
// adds vanish (their pool lines are recycled), transient deletes revert
// to globally valid. It returns the number of entries unwound.
func (r *Redirect) AbortFrame(core int) int {
	marks := r.frameMarks[core]
	if len(marks) == 0 {
		panic("redirect: AbortFrame without a frame")
	}
	mark := marks[len(marks)-1]
	journal := r.journals[core]
	n := len(journal) - mark
	for i := len(journal) - 1; i >= mark; i-- {
		rec := journal[i]
		te, ok := r.trans[core].Get(rec.line)
		if !ok {
			continue
		}
		switch rec.kind {
		case journalAdd:
			r.pool.Release(te.pool)
			r.l1[core].remove(rec.line)
			r.note(rec.line)
		case journalClaim:
			if g := r.global.Ref(rec.line); g != nil && g.claimedBy == core {
				g.claimedBy = -1
				r.mapGen++
			}
			r.l1[core].unpin(rec.line)
		}
		r.trans[core].Delete(rec.line)
	}
	r.journals[core] = journal[:mark]
	r.frameMarks[core] = marks[:len(marks)-1]
	if len(r.frameMarks[core]) == 0 {
		r.overflow[core] = false
	}
	return n
}

// TxOverflowed reports whether core's current transaction overflowed the
// first-level table (Table V statistics).
func (r *Redirect) TxOverflowed(core int) bool { return r.overflow[core] }

// SetPressure forces (or releases) first-level entry pressure; see the
// field comment.
func (r *Redirect) SetPressure(on bool) { r.pressured = on }

// Pressured reports whether injected entry pressure is active.
func (r *Redirect) Pressured() bool { return r.pressured }

// fillL1 caches an entry line in core's first-level table (unpinned).
func (r *Redirect) fillL1(core int, line sim.Line, pinned bool) {
	victim, evicted, _ := r.l1[core].insert(line, pinned)
	if evicted {
		r.note(victim)
		r.spillToL2(victim)
	}
}

// fillL2 caches an entry line in the second level, spilling its victim to
// the software structure in memory.
func (r *Redirect) fillL2(line sim.Line) {
	r.note(line)
	victim, evicted := r.l2.insert(line)
	if evicted {
		if r.global.Has(victim) {
			r.inMemory.Put(victim, struct{}{})
		}
	}
	r.inMemory.Delete(line)
}

// spillToL2 writes an entry evicted from a first-level table back to the
// shared level, unless the mapping no longer exists.
func (r *Redirect) spillToL2(line sim.Line) {
	if r.global.Has(line) {
		r.fillL2(line)
	}
}

// dropGlobal removes a committed mapping from every structure.
func (r *Redirect) dropGlobal(line sim.Line) {
	r.mapGen++
	r.note(line)
	r.global.Delete(line)
	for _, t := range r.l1 {
		t.remove(line)
	}
	r.l2.remove(line)
	r.inMemory.Delete(line)
}

// Version returns a stamp of the shared redirect state a lookup reads
// and may move: it changes whenever the committed map changes or the
// second-level table's LRU clock advances (both only ever grow).
func (r *Redirect) Version() uint64 { return r.mapGen + r.l2.clock }

// L1Clock returns the LRU clock of core's first-level table, which
// only core's own lookups and insertions advance.
func (r *Redirect) L1Clock(core int) uint64 { return r.l1[core].clock }

// TouchL1 applies n first-level hits on line by core at once, as n
// lookups hitting core's first-level table would: the table clock
// advances by n and line, when present, takes the newest stamp.
//
//suv:hotpath
func (r *Redirect) TouchL1(core int, line sim.Line, n uint64) {
	t := r.l1[core]
	t.clock += n
	if wi, ok := t.index.Get(line); ok {
		t.ways[wi].lru = t.clock
	}
}

// Watch turns line logging on or off; turning it off empties the log.
// While on, every line whose committed mapping is added, repointed or
// dropped, that is filled into the second-level table, or that leaves
// a first-level table is logged, so a caller that skips repeated
// lookups of a line learns when their outcome could change.
func (r *Redirect) Watch(on bool) {
	r.watching = on
	r.touched = r.touched[:0]
}

// Touched returns the lines logged since the last ClearTouched. The
// slice aliases the log and is valid until the next mutation.
func (r *Redirect) Touched() []sim.Line { return r.touched }

// ClearTouched empties the log.
func (r *Redirect) ClearTouched() { r.touched = r.touched[:0] }

// note logs line while watching.
//
//suv:hotpath
func (r *Redirect) note(line sim.Line) {
	if r.watching {
		r.touched = append(r.touched, line)
	}
}
