package redirect

import (
	"testing"
	"testing/quick"

	"suvtm/internal/mem"
	"suvtm/internal/sim"
)

func testRedirect(cores, l1Entries int) *Redirect {
	cfg := Config{
		Cores: cores, L1Entries: l1Entries,
		L2Entries: 64, L2Ways: 4, L2Latency: 10, MemLatency: 150, MisspecPenalty: 20,
	}
	alloc := mem.NewAllocator(0x8000_0000, 1<<30)
	return New(cfg, alloc)
}

func TestTxStoreCreatesTransientAdd(t *testing.T) {
	r := testRedirect(2, 8)
	r.BeginFrame(0)
	out := r.TxStore(0, 100)
	if !out.NewEntry || !out.NeedFill || out.FillFrom != 100 {
		t.Fatalf("outcome = %+v", out)
	}
	if st := r.TransientState(0, 100); st != TransientAdd {
		t.Fatalf("state = %v", st)
	}
	// Owner resolves to the pool line, others to the original.
	if r.Resolve(0, 100) != out.Target {
		t.Fatal("owner not redirected")
	}
	if r.Resolve(1, 100) != 100 {
		t.Fatal("non-owner redirected by a transient add")
	}
	if _, global := r.GlobalTarget(100); global {
		t.Fatal("transient add visible globally before commit")
	}
}

func TestCommitPublishesAndSummaryEvents(t *testing.T) {
	r := testRedirect(2, 8)
	r.BeginFrame(0)
	out := r.TxStore(0, 100)
	events := r.CommitFrame(0)
	if len(events) != 1 || !events[0].Added || events[0].Line != 100 {
		t.Fatalf("events = %+v", events)
	}
	if target, ok := r.GlobalTarget(100); !ok || target != out.Target {
		t.Fatalf("global mapping = (%d,%v)", target, ok)
	}
	if r.Resolve(1, 100) != out.Target {
		t.Fatal("committed redirect invisible to other cores")
	}
	if r.TransientCount(0) != 0 {
		t.Fatal("transient entry survived commit")
	}
}

func TestAbortDiscardsTransientAdd(t *testing.T) {
	r := testRedirect(2, 8)
	r.BeginFrame(0)
	r.TxStore(0, 100)
	freeBefore := r.Pool().FreeLines()
	if n := r.AbortFrame(0); n != 1 {
		t.Fatalf("unwound %d entries", n)
	}
	if r.TransientState(0, 100) != Free {
		t.Fatal("aborted entry survived")
	}
	if r.Pool().FreeLines() != freeBefore+1 {
		t.Fatal("pool line not recycled")
	}
	if r.Resolve(0, 100) != 100 {
		t.Fatal("aborted redirect still resolves")
	}
}

func TestRedirectBackLifecycle(t *testing.T) {
	r := testRedirect(2, 8)
	// Transaction 1: redirect 100 -> P.
	r.BeginFrame(0)
	p := r.TxStore(0, 100).Target
	r.CommitFrame(0)

	// Transaction 2 (another core): store redirects back to the original.
	r.BeginFrame(1)
	out := r.TxStore(1, 100)
	if !out.RedirectBack || out.Target != 100 || out.FillFrom != p || !out.NeedFill {
		t.Fatalf("redirect-back outcome = %+v", out)
	}
	if st := r.TransientState(1, 100); st != TransientDelete {
		t.Fatalf("state = %v", st)
	}
	// Owner sees the original, others still follow the old mapping.
	if r.Resolve(1, 100) != 100 || r.Resolve(0, 100) != p {
		t.Fatal("TransientDelete visibility wrong")
	}

	events := r.CommitFrame(1)
	if len(events) != 1 || !events[0].Removed {
		t.Fatalf("events = %+v", events)
	}
	if _, ok := r.GlobalTarget(100); ok {
		t.Fatal("mapping survived committed redirect-back")
	}
	if r.EntryCount() != 0 {
		t.Fatal("entry count should return to zero (the paper's growth control)")
	}
}

func TestRedirectBackAbortRestoresGlobal(t *testing.T) {
	r := testRedirect(2, 8)
	r.BeginFrame(0)
	p := r.TxStore(0, 100).Target
	r.CommitFrame(0)

	r.BeginFrame(0)
	r.TxStore(0, 100) // redirect-back
	r.AbortFrame(0)
	if target, ok := r.GlobalTarget(100); !ok || target != p {
		t.Fatalf("mapping after abort = (%d,%v), want (%d,true)", target, ok, p)
	}
	if r.Resolve(0, 100) != p {
		t.Fatal("mapping not restored after abort")
	}
}

// fig4Line is the original line the Table II tests below redirect.
const fig4Line sim.Line = 100

// fig4Entry returns a redirect machine in which core 0 runs a
// transaction and fig4Line's entry is in state from: a transient add
// (core 0 stored to an unmapped line), a transient delete (core 0
// stored to a line core 1 redirected and committed), or a global
// mapping core 0 has not touched. It also returns the committed pool
// line (0 for the transient add).
func fig4Entry(t *testing.T, from State) (*Redirect, sim.Line) {
	t.Helper()
	r := testRedirect(2, 8)
	var pool sim.Line
	if from != TransientAdd {
		r.BeginFrame(1)
		pool = r.TxStore(1, fig4Line).Target
		r.CommitFrame(1)
	}
	r.BeginFrame(0)
	if from == GlobalValid {
		r.TxStore(0, fig4Line+1)
	} else {
		r.TxStore(0, fig4Line)
	}
	if got := entryState(r, 0, fig4Line); got != from {
		t.Fatalf("set-up built %v, want %v", got, from)
	}
	return r, pool
}

// entryState names line's state as core sees it in Table II's terms:
// core's transient entry if it has one, else GlobalValid for a
// committed mapping, else Free.
func entryState(r *Redirect, core int, line sim.Line) State {
	if st := r.TransientState(core, line); st != Free {
		return st
	}
	if _, ok := r.GlobalTarget(line); ok {
		return GlobalValid
	}
	return Free
}

// TestTargetForVisibility checks the visibility rules of Table II on
// Resolve: a global mapping redirects everyone, a transient add only
// its owner, a transient delete everyone but its owner, and a free line
// nobody.
func TestTargetForVisibility(t *testing.T) {
	r := testRedirect(2, 8)
	if r.Resolve(0, fig4Line) != fig4Line || r.Resolve(1, fig4Line) != fig4Line {
		t.Fatal("Free entry must not redirect")
	}

	r, _ = fig4Entry(t, TransientAdd)
	add := r.Resolve(0, fig4Line)
	if add == fig4Line {
		t.Fatal("TransientAdd must redirect the owner")
	}
	if r.Resolve(1, fig4Line) != fig4Line {
		t.Fatal("TransientAdd must not redirect other cores")
	}

	r, pool := fig4Entry(t, GlobalValid)
	if r.Resolve(0, fig4Line) != pool || r.Resolve(1, fig4Line) != pool {
		t.Fatal("GlobalValid must redirect everyone")
	}

	r, pool = fig4Entry(t, TransientDelete)
	if r.Resolve(0, fig4Line) != fig4Line {
		t.Fatal("TransientDelete owner must see the original")
	}
	if r.Resolve(1, fig4Line) != pool {
		t.Fatal("TransientDelete must keep redirecting other cores")
	}
}

// TestFig4eCommitTransitions checks the commit rule of Figure 4(e):
// valid=1 publishes (global 0->1), valid=0 frees (global 1->0), and a
// mapping the transaction did not touch stays.
func TestFig4eCommitTransitions(t *testing.T) {
	cases := []struct{ from, to State }{
		{TransientAdd, GlobalValid},
		{TransientDelete, Free},
		{GlobalValid, GlobalValid},
	}
	for _, c := range cases {
		r, _ := fig4Entry(t, c.from)
		r.CommitFrame(0)
		if got := entryState(r, 0, fig4Line); got != c.to {
			t.Errorf("commit %v -> %v, want %v", c.from, got, c.to)
		}
	}
}

// TestFig4fAbortTransitions checks the abort rule of Figure 4(f):
// global=1 restores the valid bit, global=0 frees.
func TestFig4fAbortTransitions(t *testing.T) {
	cases := []struct{ from, to State }{
		{TransientAdd, Free},
		{TransientDelete, GlobalValid},
		{GlobalValid, GlobalValid},
	}
	for _, c := range cases {
		r, pool := fig4Entry(t, c.from)
		r.AbortFrame(0)
		if got := entryState(r, 0, fig4Line); got != c.to {
			t.Errorf("abort %v -> %v, want %v", c.from, got, c.to)
		}
		if target, ok := r.GlobalTarget(fig4Line); ok && target != pool {
			t.Errorf("abort %v left mapping %d, want the committed %d", c.from, target, pool)
		}
	}
}

func TestRepeatedStoreSameTxReusesEntry(t *testing.T) {
	r := testRedirect(1, 8)
	r.BeginFrame(0)
	first := r.TxStore(0, 50)
	second := r.TxStore(0, 50)
	if second.NewEntry || second.NeedFill || second.Target != first.Target {
		t.Fatalf("second store outcome = %+v", second)
	}
	if r.TransientCount(0) != 1 {
		t.Fatal("duplicate entries for one line")
	}
}

// TestConcurrentTransientsStayDisjoint checks the lazy-transaction case:
// two cores privately redirect the same line to different pool lines and
// the committer publishes while the loser's state unwinds cleanly.
func TestConcurrentTransientsStayDisjoint(t *testing.T) {
	r := testRedirect(2, 8)
	r.BeginFrame(0)
	r.BeginFrame(1)
	a := r.TxStore(0, 77)
	b := r.TxStore(1, 77)
	if a.Target == b.Target {
		t.Fatal("concurrent writers share a physical line")
	}
	if r.Resolve(0, 77) != a.Target || r.Resolve(1, 77) != b.Target {
		t.Fatal("private visibility broken")
	}
	events := r.CommitFrame(0)
	if len(events) != 1 || !events[0].Added {
		t.Fatalf("committer events = %+v", events)
	}
	if target, _ := r.GlobalTarget(77); target != a.Target {
		t.Fatal("wrong mapping published")
	}
	// The loser aborts; the published mapping must survive.
	r.AbortFrame(1)
	if target, ok := r.GlobalTarget(77); !ok || target != a.Target {
		t.Fatal("loser's abort damaged the published mapping")
	}
}

// TestChainedRedirect checks re-redirecting a line whose original space
// is claimed: the second writer chains to a fresh pool line seeded from
// the committed version, and its commit replaces the mapping without
// summary churn.
func TestChainedRedirect(t *testing.T) {
	r := testRedirect(3, 8)
	r.BeginFrame(0)
	p := r.TxStore(0, 9).Target
	r.CommitFrame(0)

	// Core 1 claims the original space (redirect-back)...
	r.BeginFrame(1)
	if out := r.TxStore(1, 9); !out.RedirectBack {
		t.Fatalf("claimant outcome = %+v", out)
	}
	// ...so core 2 must chain.
	r.BeginFrame(2)
	out := r.TxStore(2, 9)
	if !out.Chained || !out.NewEntry || out.FillFrom != p || out.Target == p || out.Target == 9 {
		t.Fatalf("chained outcome = %+v", out)
	}
	// Core 2 commits first: mapping replaced, line stays redirected, no
	// Added/Removed events.
	if events := r.CommitFrame(2); len(events) != 0 {
		t.Fatalf("chained commit events = %+v", events)
	}
	if target, ok := r.GlobalTarget(9); !ok || target != out.Target {
		t.Fatalf("mapping = (%d,%v), want %d", target, ok, out.Target)
	}
	// The claimant (which conflict resolution would have doomed) aborts;
	// its stale claim must not disturb the replaced mapping.
	r.AbortFrame(1)
	if target, ok := r.GlobalTarget(9); !ok || target != out.Target {
		t.Fatal("claimant abort corrupted the replaced mapping")
	}
}

// TestClaimCommitFirst covers the other arbitration order: the claimant
// publishes its redirect-back and the chained loser unwinds.
func TestClaimCommitFirst(t *testing.T) {
	r := testRedirect(3, 8)
	r.BeginFrame(0)
	r.TxStore(0, 9)
	r.CommitFrame(0)

	r.BeginFrame(1)
	r.TxStore(1, 9) // claim
	r.BeginFrame(2)
	chained := r.TxStore(2, 9)
	if !chained.Chained {
		t.Fatalf("outcome = %+v", chained)
	}

	events := r.CommitFrame(1)
	if len(events) != 1 || !events[0].Removed {
		t.Fatalf("claimant commit events = %+v", events)
	}
	if _, ok := r.GlobalTarget(9); ok {
		t.Fatal("mapping survived committed redirect-back")
	}
	r.AbortFrame(2)
	if r.TransientCount(2) != 0 {
		t.Fatal("chained loser left transient state")
	}
}

func TestNestedFramesPartialAbort(t *testing.T) {
	r := testRedirect(1, 16)
	r.BeginFrame(0)
	outerOut := r.TxStore(0, 10)
	r.BeginFrame(0) // nested
	r.TxStore(0, 20)
	r.AbortFrame(0) // abort inner only
	if r.TransientState(0, 20) != Free {
		t.Fatal("inner entry survived partial abort")
	}
	if r.TransientState(0, 10) != TransientAdd {
		t.Fatal("outer entry damaged by partial abort")
	}
	events := r.CommitFrame(0)
	if len(events) != 1 || events[0].Line != 10 {
		t.Fatalf("outer commit events = %+v", events)
	}
	if r.Resolve(0, 10) != outerOut.Target {
		t.Fatal("outer mapping lost")
	}
}

func TestNestedCommitMergesIntoParent(t *testing.T) {
	r := testRedirect(1, 16)
	r.BeginFrame(0)
	r.BeginFrame(0)
	r.TxStore(0, 30)
	if ev := r.CommitFrame(0); ev != nil {
		t.Fatalf("nested commit published events: %+v", ev)
	}
	if r.TransientState(0, 30) != TransientAdd {
		t.Fatal("inner entry not merged as transient")
	}
	// Aborting the outer frame must now unwind the merged entry.
	r.AbortFrame(0)
	if r.TransientState(0, 30) != Free {
		t.Fatal("merged entry survived outer abort")
	}
}

func TestL1TableOverflowFlag(t *testing.T) {
	r := testRedirect(1, 4)
	r.BeginFrame(0)
	for i := sim.Line(0); i < 4; i++ {
		if out := r.TxStore(0, 1000+i); out.Overflowed {
			t.Fatalf("premature overflow at entry %d", i)
		}
	}
	out := r.TxStore(0, 2000)
	if !out.Overflowed || !r.TxOverflowed(0) {
		t.Fatal("fifth pinned entry did not overflow a 4-entry table")
	}
	r.CommitFrame(0)
	if r.TxOverflowed(0) {
		t.Fatal("overflow flag survived commit")
	}
}

func TestLookupLevelsAndLatency(t *testing.T) {
	r := testRedirect(2, 2)
	r.BeginFrame(0)
	r.TxStore(0, 1)
	r.TxStore(0, 2)
	r.CommitFrame(0)

	// Core 0 has both entries in its first-level table: zero latency.
	if out := r.Lookup(0, 1); out.Level != LevelL1 || out.Latency != 0 || !out.Found {
		t.Fatalf("lookup = %+v", out)
	}
	// Core 1 misses its first level and pays the shared-level latency.
	out := r.Lookup(1, 1)
	if out.Level == LevelL1 || out.Latency == 0 {
		t.Fatalf("core 1 lookup = %+v", out)
	}
	// Second probe hits core 1's first level.
	if out := r.Lookup(1, 1); out.Level != LevelL1 {
		t.Fatalf("second lookup = %+v", out)
	}
	// Absent lines: speculative use of the original address hides the
	// confirmation latency.
	if out := r.Lookup(0, 999); out.Level != LevelAbsent || out.Latency != 0 || out.Found {
		t.Fatalf("absent lookup = %+v", out)
	}
}

func TestSwappedOutEntriesCostMemoryLookup(t *testing.T) {
	cfg := Config{Cores: 1, L1Entries: 2, L2Entries: 4, L2Ways: 2, L2Latency: 10, MemLatency: 150, MisspecPenalty: 20}
	alloc := mem.NewAllocator(0x8000_0000, 1<<30)
	r := New(cfg, alloc)
	// Create many global entries so some spill to the software structure.
	for i := sim.Line(0); i < 12; i++ {
		r.BeginFrame(0)
		r.TxStore(0, 100+i)
		r.CommitFrame(0)
	}
	if r.SwappedOut() == 0 {
		t.Fatal("no entries swapped out despite tiny tables")
	}
	found := false
	for i := sim.Line(0); i < 12; i++ {
		out := r.Lookup(0, 100+i)
		if out.Level == LevelMemory {
			found = true
			if !out.Misspeculated || out.Latency != 170 {
				t.Fatalf("memory lookup = %+v", out)
			}
			break
		}
	}
	if !found {
		t.Fatal("no lookup reached the software structure")
	}
}

// TestEntryCountStableUnderChurn property-checks the paper's growth
// argument: alternating redirect and redirect-back keeps the entry count
// bounded by the working set.
func TestEntryCountStableUnderChurn(t *testing.T) {
	f := func(ops []uint8) bool {
		r := testRedirect(1, 64)
		for _, op := range ops {
			line := sim.Line(op % 16)
			r.BeginFrame(0)
			r.TxStore(0, line)
			if op%5 == 0 {
				r.AbortFrame(0)
			} else {
				r.CommitFrame(0)
			}
			if r.EntryCount() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolLinesNeverLeak property-checks pool accounting: after any
// sequence of fully committed/aborted single-line transactions, live
// mappings plus free-list lines account for every allocated line.
func TestPoolLinesNeverLeak(t *testing.T) {
	f := func(ops []uint8) bool {
		r := testRedirect(2, 64)
		for _, op := range ops {
			core := int(op>>6) % 2
			line := sim.Line(op % 8)
			r.BeginFrame(core)
			r.TxStore(core, line)
			if op%3 == 0 {
				r.AbortFrame(core)
			} else {
				r.CommitFrame(core)
			}
		}
		// No open frames: transients must all be gone.
		return r.TransientCount(0) == 0 && r.TransientCount(1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRecycling(t *testing.T) {
	alloc := mem.NewAllocator(0x8000_0000, 1<<30)
	p := NewPool(alloc)
	a := p.Alloc()
	b := p.Alloc()
	if a == b {
		t.Fatal("duplicate pool lines")
	}
	p.Release(a)
	if c := p.Alloc(); c != a {
		t.Fatalf("free list not reused: got %d want %d", c, a)
	}
	// Pages are claimed a stripe-spread group at a time.
	if p.Pages() != 16 {
		t.Fatalf("pages = %d", p.Pages())
	}
	for i := 0; i < 16*mem.PageBytes/sim.LineBytes; i++ {
		p.Alloc()
	}
	if p.Pages() != 32 {
		t.Fatalf("pages after exhaustion = %d", p.Pages())
	}
}

// TestPoolStripeInterleave: consecutive pool lines land on different
// 64 KB stripes, the fixed layout the Pool type comment describes.
func TestPoolStripeInterleave(t *testing.T) {
	alloc := mem.NewAllocator(0x8000_0000, 1<<30)
	p := NewPool(alloc)
	stripes := make(map[uint64]bool)
	for i := 0; i < 16; i++ {
		stripes[uint64(sim.AddrOf(p.Alloc()))/PoolInterleave] = true
	}
	if len(stripes) != 16 {
		t.Fatalf("16 consecutive pool lines cover %d stripes, want 16", len(stripes))
	}
}

func TestGeometryMatchesPaper(t *testing.T) {
	g := NewGeometry(mem.CacheConfig{SizeBytes: 32 << 10, Ways: 4}, 64)
	if g.L1IndexBits != 7 || g.StateBits != 2 || g.TLBIndexBits != 6 || g.OffsetBits != 7 {
		t.Fatalf("geometry = %+v", g)
	}
	if g.EntryBits() != 22 {
		t.Fatalf("entry bits = %d, want 22", g.EntryBits())
	}
}

func TestTxStoreOutsideFramePanics(t *testing.T) {
	r := testRedirect(1, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("TxStore without a frame did not panic")
		}
	}()
	r.TxStore(0, 1)
}

// TestWatchLogsLineChanges pins the mutation signals a machine that
// skips repeated lookups relies on: while watching, each change to a
// line's committed mapping or table residency logs the line; Version
// moves with the committed map and the second-level clock; nothing is
// logged while not watching.
func TestWatchLogsLineChanges(t *testing.T) {
	r := testRedirect(2, 2)
	logged := func(step string, want ...sim.Line) {
		t.Helper()
		got := append([]sim.Line(nil), r.Touched()...)
		for _, w := range want {
			found := false
			for _, g := range got {
				found = found || g == w
			}
			if !found {
				t.Fatalf("%s: log %v lacks line %d", step, got, w)
			}
		}
		r.ClearTouched()
	}
	r.BeginFrame(0)
	r.TxStore(0, 100)
	r.CommitFrame(0)
	if len(r.Touched()) != 0 {
		t.Fatalf("logged %v while not watching", r.Touched())
	}

	r.Watch(true)
	v := r.Version()
	r.BeginFrame(1)
	r.TxStore(1, 100) // redirect-back claims the committed mapping
	if r.Version() == v {
		t.Fatal("claiming a committed mapping left Version unchanged")
	}
	r.CommitFrame(1) // drops the mapping
	logged("drop", 100)

	r.BeginFrame(0)
	r.TxStore(0, 200)
	r.CommitFrame(0) // adds a mapping
	logged("add", 200)

	r.BeginFrame(1)
	r.TxStore(1, 300)
	r.AbortFrame(1) // the transient entry leaves core 1's first-level table
	logged("abort", 300)

	v = r.Version()
	r.Lookup(1, 200) // fills the entry into the second level and core 1's table
	logged("fill", 200)
	if r.Version() == v {
		t.Fatal("a second-level fill left Version unchanged")
	}

	r.Watch(false)
	if len(r.Touched()) != 0 {
		t.Fatal("Watch(false) kept the log")
	}
}

// TestTouchL1MatchesLookups pins the settle step: n first-level touches
// at once leave the table exactly as n first-level lookup hits do.
func TestTouchL1MatchesLookups(t *testing.T) {
	a, b := testRedirect(1, 4), testRedirect(1, 4)
	for _, r := range []*Redirect{a, b} {
		for _, line := range []sim.Line{10, 20, 30} {
			r.BeginFrame(0)
			r.TxStore(0, line)
			r.CommitFrame(0)
		}
	}
	for i := 0; i < 7; i++ {
		if out := a.Lookup(0, 20); out.Level != LevelL1 {
			t.Fatalf("lookup level %v, want L1", out.Level)
		}
	}
	b.TouchL1(0, 20, 7)
	if a.L1Clock(0) != b.L1Clock(0) {
		t.Fatalf("clock %d after lookups, %d after TouchL1", a.L1Clock(0), b.L1Clock(0))
	}
	wa, _ := a.l1[0].index.Get(20)
	wb, _ := b.l1[0].index.Get(20)
	if a.l1[0].ways[wa] != b.l1[0].ways[wb] {
		t.Fatalf("way %+v after lookups, %+v after TouchL1", a.l1[0].ways[wa], b.l1[0].ways[wb])
	}
}
