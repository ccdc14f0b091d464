package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"suvtm/internal/htm"
)

// goldenExportsPath holds one line per observed run: its identity, its
// cycles and one SHA-256 over every export the run writes.
var goldenExportsPath = filepath.Join("testdata", "golden", "exports.txt")

// exportRun is one pinned observed run and the name of its observer set.
type exportRun struct {
	observers string
	spec      Spec
}

// exportRuns is the pinned set: four contended apps under all five
// schemes, fault-free and under the mixed plan, with every observer on;
// then each observer alone, and the older-wins policy (the only source
// of older-wins dooms) with every observer on.
func exportRuns() []exportRun {
	all := func(app string, s Scheme, plan string) Spec {
		return Spec{App: app, Scheme: s, Cores: 8, Scale: 0.1, FaultPlan: plan,
			Metrics: true, SampleInterval: 5000, TraceEvents: 512, ChromeTrace: true, Forensics: true}
	}
	var runs []exportRun
	for _, app := range []string{"intruder", "labyrinth", "yada", "vacation"} {
		for _, s := range AllSchemes {
			for _, plan := range []string{"", "mixed"} {
				runs = append(runs, exportRun{"all", all(app, s, plan)})
			}
		}
	}
	one := Spec{App: "intruder", Scheme: DynTMSUV, Cores: 8, Scale: 0.1, FaultPlan: "mixed"}
	trace, fx, met, chrome := one, one, one, one
	trace.TraceEvents = 512
	fx.Forensics = true
	met.Metrics, met.SampleInterval = true, 5000
	chrome.ChromeTrace = true
	runs = append(runs, exportRun{"trace", trace}, exportRun{"forensics", fx},
		exportRun{"metrics", met}, exportRun{"chrome", chrome})
	olderWins := func(cfg *htm.Config) { cfg.Policy = htm.PolicyOlderWins }
	for _, s := range []Spec{all("intruder", LogTMSE, ""), all("yada", SUVTM, "mixed")} {
		s.Tweak = olderWins
		runs = append(runs, exportRun{"all/older-wins", s})
	}
	return runs
}

// exportsLine runs one observed spec and digests every export it
// writes: the metrics snapshot as JSON and as Prometheus text, the
// series CSV, the Chrome trace, the conflict report as JSON and as
// folded stacks, and the trace ring's total and dump. Each export is
// framed by its name and length, so an absent export differs from an
// empty one.
func exportsLine(r exportRun) (string, error) {
	out, err := Run(r.spec)
	if err != nil {
		return "", err
	}
	if out.CheckErr != nil {
		return "", out.CheckErr
	}
	h := sha256.New()
	var werr error
	put := func(name string, write func(io.Writer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil && werr == nil {
			werr = fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(h, "%s %d\n", name, buf.Len())
		h.Write(buf.Bytes())
	}
	if out.Metrics != nil {
		put("metrics.json", out.Metrics.WriteJSON)
		put("metrics.prom", out.Metrics.WriteProm)
	}
	if out.Series != nil {
		put("series.csv", out.Series.WriteCSV)
	}
	if out.Chrome != nil {
		put("chrome.json", out.Chrome.WriteJSON)
	}
	if out.Forensics != nil {
		put("conflicts.json", out.Forensics.WriteJSON)
		put("conflicts.folded", out.Forensics.WriteFolded)
	}
	if out.Trace != nil {
		put("trace.dump", func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "total %d\n%s", out.Trace.Total(), out.Trace.Dump())
			return err
		})
	}
	if werr != nil {
		return "", werr
	}
	plan := r.spec.FaultPlan
	if plan == "" {
		plan = "-"
	}
	return fmt.Sprintf("%-9s %-9s %-5s %-14s %9d %x",
		r.spec.App, r.spec.Scheme, plan, r.observers, out.Cycles, h.Sum(nil)), nil
}

// TestGoldenExports pins the bytes every observer writes, run by run:
// the event recorder, the metrics collector (sampler, histograms,
// Chrome trace) and the forensics collector, alone and together. A
// change to how the machine feeds its observers must leave every line
// unchanged; a deliberate change to an export replaces the file with
// the table this test prints on mismatch and says why in CHANGES.md.
func TestGoldenExports(t *testing.T) {
	var b strings.Builder
	for _, r := range exportRuns() {
		line, err := exportsLine(r)
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", r.spec.App, r.spec.Scheme, r.observers, err)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	checkGoldenFile(t, goldenExportsPath, "observer exports", "a deliberate change to an export", b.String())
}
