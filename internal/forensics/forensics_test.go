package forensics

import (
	"bytes"
	"math/rand"
	"testing"

	"suvtm/internal/sim"
)

// TestClassification checks the signature false-positive accounting and
// the oracle invariant on a hand-built event stream.
func TestClassification(t *testing.T) {
	f := NewCollector(4)

	// Three signature-reported NACKs: two confirmed by the precise sets,
	// one pure aliasing artifact.
	f.NACK(NACKEvent{Requester: 0, Holder: 1, Line: 0x100, Cause: CauseEagerNACK,
		ReqSite: 1, HoldSite: 2, SigHit: true, Precise: true, Stall: 20, Sharers: 2})
	f.NACK(NACKEvent{Requester: 2, Holder: 1, Line: 0x100, Cause: CauseEagerNACK,
		ReqSite: 1, HoldSite: 2, SigHit: true, Precise: true, Stall: 20, Sharers: 3})
	f.NACK(NACKEvent{Requester: 3, Holder: 1, Line: 0x200, Cause: CauseEagerNACK,
		ReqSite: 3, HoldSite: 2, SigHit: true, Precise: false, Stall: 40, AliasRate: 0.5})
	// An injected NACK involves no signature at all.
	f.NACK(NACKEvent{Requester: 0, Holder: NoCore, Line: NoLine, Cause: CauseInjected,
		ReqSite: 1, HoldSite: NoSite, Stall: 10})

	r := f.Report(0)
	s := r.Summary
	if s.NACKs != 4 || s.Injected != 1 {
		t.Errorf("nacks=%d injected=%d, want 4/1", s.NACKs, s.Injected)
	}
	if s.SigHits != 3 || s.PreciseHits != 2 {
		t.Errorf("sigHits=%d preciseHits=%d, want 3/2", s.SigHits, s.PreciseHits)
	}
	if s.TrueConflicts != 2 || s.FalsePositives != 1 {
		t.Errorf("true=%d false=%d, want 2/1", s.TrueConflicts, s.FalsePositives)
	}
	// The oracle invariant ties the two bookkeeping paths together.
	if s.FalsePositives != s.SigHits-s.PreciseHits {
		t.Errorf("oracle violated: FP=%d, sigHits-preciseHits=%d",
			s.FalsePositives, s.SigHits-s.PreciseHits)
	}
	if s.TrueConflicts+s.FalsePositives != s.SigHits {
		t.Errorf("true+false=%d != sigHits=%d", s.TrueConflicts+s.FalsePositives, s.SigHits)
	}
	if got, want := s.FalsePositiveRate, 1.0/3.0; got != want {
		t.Errorf("FP rate=%v, want %v", got, want)
	}
	if got, want := s.PredictedAliasRate, 0.5; got != want {
		t.Errorf("predicted alias=%v, want %v", got, want)
	}
	if s.StallCycles != 90 {
		t.Errorf("stall=%d, want 90", s.StallCycles)
	}

	// The hot line is 0x100 (40 stall cycles over two NACKs, 3 sharers).
	if len(r.Lines) == 0 || r.Lines[0].Line != 0x200 {
		// 0x200 carries 40 cycles too; tie broken by line id? No: 0x100
		// has 40 total as well — the sort is by cycles then id, so 0x100
		// (lower id) must come first.
		if len(r.Lines) == 0 || r.Lines[0].Line != 0x100 {
			t.Errorf("hot line = %+v, want 0x100 first", r.Lines)
		}
	}
	if r.Lines[0].Line == 0x100 && r.Lines[0].MaxSharers != 3 {
		t.Errorf("maxSharers=%d, want 3", r.Lines[0].MaxSharers)
	}
	// Site 2 refused three requests; its kill count surfaces it.
	for _, st := range r.Sites {
		if st.Site == 2 && st.Kills != 3 {
			t.Errorf("holder site kills=%d, want 3", st.Kills)
		}
	}
}

// TestCascadesAndFriendlyFire checks the abort-causality graph: a
// victim whose killer itself aborted during the victim's attempt is a
// cascade, and mutual kills are friendly fire.
func TestCascadesAndFriendlyFire(t *testing.T) {
	f := NewCollector(4)
	// Core 1 aborts core 0 at cycle 100.
	f.Abort(AbortEvent{Cycle: 100, Victim: 0, Killer: 1, Line: 0x10,
		Cause: CauseOlderWins, VictimSite: 1, KillerSite: 2,
		Wasted: 50, AttemptStart: 40})
	// Core 0 then aborts core 1 at cycle 150; core 0's own abort (cycle
	// 100) falls inside core 1's attempt [90, 150] — a cascade, and the
	// 0<->1 pair becomes friendly fire.
	f.Abort(AbortEvent{Cycle: 150, Victim: 1, Killer: 0, Line: 0x10,
		Cause: CauseOlderWins, VictimSite: 2, KillerSite: 1,
		Wasted: 60, AttemptStart: 90})
	// An unrelated self-abort (token) has no killer and no cascade.
	f.Abort(AbortEvent{Cycle: 200, Victim: 3, Killer: NoCore, Line: NoLine,
		Cause: CauseToken, VictimSite: 3, KillerSite: NoSite,
		Wasted: 10, AttemptStart: 180})

	r := f.Report(0)
	if r.Summary.Aborts != 3 {
		t.Errorf("aborts=%d, want 3", r.Summary.Aborts)
	}
	if r.Summary.Cascades != 1 {
		t.Errorf("cascades=%d, want 1", r.Summary.Cascades)
	}
	if r.Summary.MaxCascadeDepth != 2 {
		t.Errorf("maxCascadeDepth=%d, want 2", r.Summary.MaxCascadeDepth)
	}
	if r.Summary.FriendlyFire != 1 {
		t.Errorf("friendlyFire=%d, want 1", r.Summary.FriendlyFire)
	}
	if r.Summary.WastedCycles != 120 {
		t.Errorf("wasted=%d, want 120", r.Summary.WastedCycles)
	}
	if len(r.Edges) != 2 {
		t.Fatalf("edges=%d, want 2", len(r.Edges))
	}
	for _, e := range r.Edges {
		if !e.Mutual {
			t.Errorf("edge %d->%d not marked mutual", e.Killer, e.Victim)
		}
	}
	// None of these abort events carries a signature decision (older-wins
	// dooms are classified at their triggering NACK; token kills involve
	// no signature), so the classification totals stay untouched.
	s := r.Summary
	if s.SigHits != 0 || s.FalsePositives != s.SigHits-s.PreciseHits {
		t.Errorf("classification drifted: %+v", s)
	}
}

// TestReportDeterminism feeds the same commutative event set in two
// different orders and requires bit-identical reports (the map drains
// must all be sorted).
func TestReportDeterminism(t *testing.T) {
	events := make([]NACKEvent, 0, 64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		events = append(events, NACKEvent{
			Cycle:     sim.Cycles(i),
			Requester: i % 8, Holder: (i + 1) % 8,
			Line:  sim.Line(0x1000 + rng.Intn(16)),
			Cause: CauseEagerNACK, ReqSite: uint32(rng.Intn(5)), HoldSite: uint32(rng.Intn(5)),
			SigHit: true, Precise: rng.Intn(3) > 0,
			Stall: sim.Cycles(10 + rng.Intn(50)), Sharers: rng.Intn(4),
		})
	}
	render := func(order []int) []byte {
		f := NewCollector(8)
		for _, i := range order {
			f.NACK(events[i])
		}
		var buf bytes.Buffer
		if err := f.Report(0).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fwd := make([]int, len(events))
	rev := make([]int, len(events))
	for i := range events {
		fwd[i] = i
		rev[i] = len(events) - 1 - i
	}
	if a, b := render(fwd), render(rev); !bytes.Equal(a, b) {
		t.Errorf("report depends on commutative event order:\n%s\nvs\n%s", a, b)
	}
}

// TestTopKTruncation checks that only the site/line tables are bounded;
// edges and folds stay complete.
func TestTopKTruncation(t *testing.T) {
	f := NewCollector(2)
	for i := 0; i < 8; i++ {
		f.NACK(NACKEvent{Requester: 0, Holder: 1,
			Line: sim.Line(0x100 + i), Cause: CauseEagerNACK,
			ReqSite: uint32(i), HoldSite: NoSite,
			SigHit: true, Precise: true, Stall: sim.Cycles(10 * (i + 1))})
	}
	r := f.Report(3)
	if len(r.Sites) != 3 || len(r.Lines) != 3 {
		t.Errorf("topK ignored: %d sites, %d lines, want 3/3", len(r.Sites), len(r.Lines))
	}
	if len(r.Folds) != 8 {
		t.Errorf("folds truncated to %d, want 8", len(r.Folds))
	}
	// Hottest first: the 80-cycle line leads.
	if r.Lines[0].StallCycles != 80 {
		t.Errorf("lines not sorted hottest-first: %+v", r.Lines)
	}
}
