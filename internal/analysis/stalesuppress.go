package analysis

import (
	"go/token"
	"sort"
	"strings"

	xanalysis "golang.org/x/tools/go/analysis"
)

// knownAnnots lists every directive the suite understands, mapped to
// the analyzer that consumes it. Anything else after //suv: is a typo
// that would otherwise silently suppress nothing forever.
var knownAnnots = map[string]string{
	"orderinsensitive": "detmap",
	"allocok":          "hotalloc",
	"nonexhaustive":    "exhaustive",
	"hotpath":          "hotalloc",
}

// StaleSuppressAnalyzer flags //suv: annotations that no longer do
// anything. Each suppression-consuming analyzer reports, via its pass
// result, the set of directives that suppressed a finding or armed a
// check during this run; a directive none of them touched is dead
// weight — the code it justified was refactored away, or the directive
// never matched in the first place — and silently rots the audit trail
// the justifications exist to provide. Because the accounting rides on
// analyzer results, it works identically under the unitchecker protocol
// (go vet -vettool) and the self-driving vet-tool mode of cmd/suvlint.
var StaleSuppressAnalyzer = &xanalysis.Analyzer{
	Name: "stalesuppress",
	Doc: "flag //suv: annotations that no longer suppress or arm anything\n\n" +
		"A //suv:orderinsensitive/allocok/nonexhaustive directive\n" +
		"must suppress at least one live finding, and //suv:hotpath must arm\n" +
		"hotalloc on a function; otherwise the annotation is stale — delete\n" +
		"it, or move it back next to the construct it justifies. Unknown\n" +
		"directive names are flagged as typos.",
	Requires: []*xanalysis.Analyzer{
		DetMapAnalyzer,
		HotAllocAnalyzer,
		ExhaustiveAnalyzer,
	},
	Run: runStaleSuppress,
}

func runStaleSuppress(pass *xanalysis.Pass) (any, error) {
	if p := pass.Pkg.Path(); p != "suvtm" && !strings.HasPrefix(p, "suvtm/") {
		return nil, nil // the contract binds this module, not dependencies
	}
	used := map[token.Pos]bool{}
	for _, res := range pass.ResultOf { // every required analyzer that reports usage
		if u, ok := res.(*annotUse); ok && u != nil {
			for pos := range u.used {
				used[pos] = true
			}
		}
	}

	names := make([]string, 0, len(knownAnnots))
	for name := range knownAnnots {
		names = append(names, name)
	}
	sort.Strings(names)
	known := strings.Join(names, ", ")

	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		annots := collectAnnots(pass.Fset, file)
		lines := make([]int, 0, len(annots))
		for line := range annots {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for _, d := range annots[line] {
				consumer, ok := knownAnnots[d.name]
				if !ok {
					pass.Reportf(d.pos, "unknown //suv:%s directive suppresses nothing (known directives: %s)", d.name, known)
					continue
				}
				if !used[d.pos] {
					pass.Reportf(d.pos, "stale //suv:%s annotation: it no longer suppresses or arms any %s finding; delete it, or move it back next to the construct it justifies", d.name, consumer)
				}
			}
		}
	}
	return nil, nil
}
