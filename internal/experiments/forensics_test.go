package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// forensicSpec is a small run with genuine signature aliasing (vacation
// at this scale reports false positives under every scheme).
var forensicSpec = Spec{App: "vacation", Scheme: SUVTM, Scale: 0.2, Forensics: true}

// TestForensicsOracle is the acceptance oracle: the collector's two
// bookkeeping paths must agree — FalsePositives is exactly the gap
// between signature-reported hits and precise-set-confirmed hits — and
// the forensic totals must dominate the machine's own coarse counter.
func TestForensicsOracle(t *testing.T) {
	out, err := Run(forensicSpec)
	if err != nil {
		t.Fatal(err)
	}
	rep := out.Forensics
	if rep == nil {
		t.Fatal("Spec.Forensics set but Outcome.Forensics is nil")
	}
	s := rep.Summary
	if s.SigHits == 0 {
		t.Fatal("seeded run produced no signature-reported conflicts")
	}
	if s.FalsePositives == 0 {
		t.Fatal("seeded run produced no false positives; the oracle is vacuous")
	}
	if s.FalsePositives != s.SigHits-s.PreciseHits {
		t.Errorf("oracle violated: FP=%d, sigHits-preciseHits=%d-%d=%d",
			s.FalsePositives, s.SigHits, s.PreciseHits, s.SigHits-s.PreciseHits)
	}
	if s.TrueConflicts+s.FalsePositives != s.SigHits {
		t.Errorf("true+false = %d+%d != sigHits=%d",
			s.TrueConflicts, s.FalsePositives, s.SigHits)
	}
	// The machine's FalsePositive counter covers only eager NACK
	// classification; forensics additionally classifies commit kills and
	// non-transactional dooms, so it can only see more.
	if s.FalsePositives < out.Counters.FalsePositive {
		t.Errorf("forensic FP=%d < machine counter FP=%d",
			s.FalsePositives, out.Counters.FalsePositive)
	}
	if s.Aborts != out.Counters.TxAborted {
		t.Errorf("forensic aborts=%d != machine TxAborted=%d",
			s.Aborts, out.Counters.TxAborted)
	}
	// Every abort was attributed: the per-cause events for abort causes
	// sum to the abort count (no event fell through as CauseNone).
	for _, c := range rep.Causes {
		if c.Cause == "none" {
			t.Errorf("unattributed events reached the report: %+v", c)
		}
	}
	if len(rep.Folds) == 0 || len(rep.Sites) == 0 || len(rep.Lines) == 0 {
		t.Errorf("report missing aggregates: %d folds, %d sites, %d lines",
			len(rep.Folds), len(rep.Sites), len(rep.Lines))
	}

	// Forensics is strictly observational: the same spec without it must
	// simulate bit-identically.
	plain := forensicSpec
	plain.Forensics = false
	bare, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Cycles != out.Cycles || bare.Counters != out.Counters {
		t.Errorf("enabling forensics perturbed the run: %d vs %d cycles",
			bare.Cycles, out.Cycles)
	}
}

// TestForensicsReplayStable runs the same forensic spec twice (forensic
// runs bypass the run cache) and requires bit-identical reports — the
// provenance layer must not perturb or be perturbed by anything
// nondeterministic.
func TestForensicsReplayStable(t *testing.T) {
	render := func() []byte {
		out, err := Run(forensicSpec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := out.Forensics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("two replays produced different forensic reports")
	}
}

// TestForensicsFleetRace runs forensic specs concurrently with progress
// streaming — under -race this checks that per-run collectors and the
// progress tracker are properly isolated/locked.
func TestForensicsFleetRace(t *testing.T) {
	resetFleetForTest(t)
	var specs []Spec
	for _, app := range []string{"intruder", "kmeans"} {
		for _, s := range []Scheme{LogTMSE, SUVTM} {
			specs = append(specs, Spec{App: app, Scheme: s, Cores: 4, Scale: 0.05,
				Forensics: true})
		}
	}
	var mu sync.Mutex
	var snaps []FleetProgress
	outs, err := RunManyWith(specs, BatchOptions{
		Jobs: 4,
		OnProgress: func(p FleetProgress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out == nil || out.Forensics == nil {
			t.Fatalf("spec %d missing forensic report", i)
		}
		// kmeans at this tiny scale is conflict-free; intruder is not.
		if specs[i].App == "intruder" &&
			out.Forensics.Summary.NACKs == 0 && out.Forensics.Summary.Aborts == 0 {
			t.Errorf("spec %d (%s/%s): empty forensic report",
				i, specs[i].App, specs[i].Scheme)
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots streamed")
	}
	last := snaps[len(snaps)-1]
	if last.Done != len(specs) || last.Failed != 0 {
		t.Errorf("final snapshot done=%d failed=%d, want %d/0",
			last.Done, last.Failed, len(specs))
	}
	var schemes []string
	for _, sp := range last.Schemes {
		schemes = append(schemes, string(sp.Scheme))
	}
	if got := strings.Join(schemes, ","); got != "LogTM-SE,SUV-TM" {
		t.Errorf("scheme rollup = %q, want sorted LogTM-SE,SUV-TM", got)
	}
}

// TestRunForensicsRender drives the scheme-comparison entry point end
// to end and spot-checks the rendered tables.
func TestRunForensicsRender(t *testing.T) {
	cmp, err := RunForensics("intruder", Fig6Schemes, ForensicsOptions{
		Cores: 4, Scale: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Reports) != len(Fig6Schemes) {
		t.Fatalf("got %d reports, want %d", len(cmp.Reports), len(Fig6Schemes))
	}
	text := cmp.Render()
	for _, s := range Fig6Schemes {
		if !strings.Contains(text, string(s)) {
			t.Errorf("render missing scheme %s:\n%s", s, text)
		}
	}
	if !strings.Contains(text, "Hottest contention points") {
		t.Errorf("render missing contention table:\n%s", text)
	}
}
