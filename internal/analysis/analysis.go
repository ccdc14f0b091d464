// Package analysis implements suvlint, the repo's static-analysis
// suite. It enforces at compile/review time the three properties the
// test suite can only probe at runtime:
//
//   - bit-identical replay: every simulated run must be a pure function
//     of (config, seed). detmap bans non-deterministic map iteration in
//     the deterministic core; wallclock bans host state (wall-clock
//     time, global rand, environment) inside the simulated machine.
//   - allocation-free hot paths: hotalloc turns the runtime
//     AllocsPerRun==0 probes into per-construct diagnostics for every
//     function annotated //suv:hotpath.
//   - enum exhaustiveness: exhaustive requires switches over the repo's
//     enum-like types (cache-line states, fault kinds, redirect states,
//     trace kinds, ...) to cover every declared constant or carry a
//     default that panics.
//   - suppression hygiene: stalesuppress cross-references every //suv:
//     directive against the findings it suppressed or the checks it
//     armed this run, and flags annotations that no longer do anything
//     (plus unknown directive names).
//
// The analyzers are built on golang.org/x/tools/go/analysis and run
// under "go vet -vettool" via cmd/suvlint (which also self-drives, so
// "go run ./cmd/suvlint ./..." works directly).
//
// # Annotations
//
// Findings are suppressed by //suv: line directives, each of which must
// carry a justification (the analyzers reject bare annotations, so
// every suppression is auditable):
//
//	//suv:orderinsensitive <why order cannot leak into simulated state>
//	//suv:allocok <why this allocation is acceptable on the hot path>
//	//suv:nonexhaustive <why this switch intentionally ignores values>
//	//suv:hotpath          (on a function doc comment; enables hotalloc)
//
// A suppression directive applies to the source line it sits on or the
// line directly below it. An annotation that stops matching any finding
// is itself a finding (stalesuppress), so the set in tree cannot rot.
package analysis

import (
	"strings"

	xanalysis "golang.org/x/tools/go/analysis"
)

// Analyzers returns the full suvlint suite in a stable order.
func Analyzers() []*xanalysis.Analyzer {
	return []*xanalysis.Analyzer{
		DetMapAnalyzer,
		WallClockAnalyzer,
		HotAllocAnalyzer,
		ExhaustiveAnalyzer,
		StaleSuppressAnalyzer,
	}
}

// detCorePkgs lists the deterministic core: every package whose
// behaviour is part of the simulated machine state or of canonical
// outputs derived from it (runcache fingerprints, experiments
// rendering). Map-iteration order in these packages can silently break
// bit-identical replay, poison run-cache keys, or scramble golden
// tables, so detmap patrols them.
var detCorePkgs = []string{
	"suvtm/internal/sim",
	"suvtm/internal/mem",
	"suvtm/internal/coherence",
	"suvtm/internal/interconnect",
	"suvtm/internal/redirect",
	"suvtm/internal/signature",
	"suvtm/internal/htm",
	"suvtm/internal/forensics",
	"suvtm/internal/workload",
	"suvtm/internal/runcache",
	"suvtm/internal/experiments",
}

// hostStateExemptPkgs lists the packages allowed to touch host state
// (wall-clock time, environment, global rand): the host profiler, the
// run cache's disk tier, the suvd daemon (HTTP timeouts, retry backoff,
// and request latency are host-side concerns by construction), and the
// suvlint tooling itself. Everything else under suvtm/internal is part
// of the simulated machine and must derive all state from
// (config, seed, cycle count).
var hostStateExemptPkgs = []string{
	"suvtm/internal/hostprof",
	"suvtm/internal/runcache",
	"suvtm/internal/suvd",
	"suvtm/internal/analysis",
}

func inDetCore(path string) bool { return inPkgSet(path, detCorePkgs) }

func inSimulatedMachine(path string) bool {
	if !strings.HasPrefix(path, "suvtm/internal/") {
		return false
	}
	return !inPkgSet(path, hostStateExemptPkgs)
}

func inPkgSet(path string, set []string) bool {
	for _, p := range set {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
