package analysis_test

import (
	"testing"

	"suvtm/internal/analysis"
	"suvtm/internal/analysis/analyzertest"
)

// Each analyzer runs over a testdata package type-checked under an
// import path chosen to land inside (or outside) the analyzer's scope,
// with expectations expressed as analysistest-style `// want` comments:
// positive findings, annotation suppressions, and clean-code negatives
// live side by side in the fixtures.

func TestDetMapCore(t *testing.T) {
	analyzertest.Run(t, "testdata/detmap/core", "suvtm/internal/sim", analysis.DetMapAnalyzer)
}

func TestDetMapOutsideCore(t *testing.T) {
	analyzertest.Run(t, "testdata/detmap/outside", "suvtm/internal/metrics", analysis.DetMapAnalyzer)
}

func TestWallClockMachine(t *testing.T) {
	analyzertest.Run(t, "testdata/wallclock/machine", "suvtm/internal/htm", analysis.WallClockAnalyzer)
}

func TestWallClockExempt(t *testing.T) {
	analyzertest.Run(t, "testdata/wallclock/exempt", "suvtm/internal/hostprof", analysis.WallClockAnalyzer)
}

// TestWallClockSuvdExempt pins the daemon's exemption: suvd is host-side
// infrastructure (HTTP timeouts, retry backoff, latency histograms), so
// the same host-state sources that fire inside the machine are clean
// when the package is type-checked as suvtm/internal/suvd.
func TestWallClockSuvdExempt(t *testing.T) {
	diags := analyzertest.Diagnostics(t, "testdata/wallclock/machine", "suvtm/internal/suvd", analysis.WallClockAnalyzer)
	if len(diags) != 0 {
		t.Fatalf("wallclock fired in exempt suvtm/internal/suvd: %v", diags)
	}
}

// TestWallClockSuvdExemptionDoesNotLeak proves the simulated core stays
// patrolled around the suvd carve-out: the exemption is an exact path
// prefix, so sibling simulator packages still get findings.
func TestWallClockSuvdExemptionDoesNotLeak(t *testing.T) {
	for _, pkg := range []string{"suvtm/internal/sim", "suvtm/internal/experiments", "suvtm/internal/suvdx"} {
		diags := analyzertest.Diagnostics(t, "testdata/wallclock/machine", pkg, analysis.WallClockAnalyzer)
		if len(diags) == 0 {
			t.Errorf("wallclock did not fire in %s — the suvd exemption leaked", pkg)
		}
	}
}

func TestHotAlloc(t *testing.T) {
	analyzertest.Run(t, "testdata/hotalloc/hot", "suvtm/internal/mem", analysis.HotAllocAnalyzer)
}

func TestExhaustive(t *testing.T) {
	analyzertest.Run(t, "testdata/exhaustive/enums", "suvtm/internal/mem", analysis.ExhaustiveAnalyzer)
}

// TestStaleSuppress runs the suppression-hygiene analyzer over a
// deterministic-core fixture where live suppressions and armed
// //suv:hotpath annotations stay silent while refactored-away and
// unknown directives fire.
func TestStaleSuppress(t *testing.T) {
	analyzertest.Run(t, "testdata/stalesuppress/pkg", "suvtm/internal/sim", analysis.StaleSuppressAnalyzer)
}

// TestSuiteArmsV2Analyzers is the canary for the v2 suite: the driver
// list cmd/suvlint feeds to both protocols must include stalesuppress,
// and it must actually fire on its broken fixture — a tree-wide green
// run proves nothing if the analyzer silently stopped matching.
func TestSuiteArmsV2Analyzers(t *testing.T) {
	armed := map[string]bool{}
	for _, a := range analysis.Analyzers() {
		armed[a.Name] = true
	}
	for _, name := range []string{"detmap", "wallclock", "hotalloc", "exhaustive", "stalesuppress"} {
		if !armed[name] {
			t.Errorf("analyzer %s missing from the suvlint suite", name)
		}
	}
	if n := len(analyzertest.Diagnostics(t, "testdata/stalesuppress/pkg", "suvtm/internal/sim", analysis.StaleSuppressAnalyzer)); n == 0 {
		t.Error("stalesuppress canary did not fire on the stale-annotation fixture")
	}
}

// TestDetMapScopeIsPackagePathSensitive pins the scope predicate: the
// same sources that fire inside suvtm/internal/sim are clean when the
// package sits outside the deterministic core.
func TestDetMapScopeIsPackagePathSensitive(t *testing.T) {
	diags := analyzertest.Diagnostics(t, "testdata/detmap/core", "suvtm/internal/hostprof", analysis.DetMapAnalyzer)
	if len(diags) != 0 {
		t.Fatalf("detmap fired outside the deterministic core: %v", diags)
	}
}

// TestWallClockScopeCoversWholeMachine pins that non-exempt simulator
// packages beyond the detmap core list (e.g. metrics) are still banned
// from host state.
func TestWallClockScopeCoversWholeMachine(t *testing.T) {
	diags := analyzertest.Diagnostics(t, "testdata/wallclock/machine", "suvtm/internal/metrics", analysis.WallClockAnalyzer)
	if len(diags) == 0 {
		t.Fatal("wallclock did not fire in suvtm/internal/metrics")
	}
}
