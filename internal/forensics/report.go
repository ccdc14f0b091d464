package forensics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"suvtm/internal/sim"
)

// TopK is the default number of hot lines / hot sites a report surfaces.
const TopK = 10

// Summary is the report's headline classification totals.
type Summary struct {
	// NACKs is every refused request; Injected the subset manufactured by
	// the fault injector (no signature involved).
	NACKs    uint64 `json:"nacks"`
	Injected uint64 `json:"injected_nacks"`
	Aborts   uint64 `json:"aborts"`

	// SigHits counts conflict decisions reported by a signature;
	// PreciseHits the subset the holder's precise line sets confirm.
	// TrueConflicts + FalsePositives == SigHits, and
	// FalsePositives == SigHits - PreciseHits (the oracle invariant).
	SigHits        uint64 `json:"sig_hits"`
	PreciseHits    uint64 `json:"precise_hits"`
	TrueConflicts  uint64 `json:"true_conflicts"`
	FalsePositives uint64 `json:"false_positives"`

	// FalsePositiveRate is FalsePositives/SigHits (0 when no hits).
	// PredictedAliasRate is the mean of the holder signatures' predicted
	// alias probability sampled at each false positive — measured vs
	// predicted aliasing side by side.
	FalsePositiveRate  float64 `json:"false_positive_rate"`
	PredictedAliasRate float64 `json:"predicted_alias_rate"`

	StallCycles  sim.Cycles `json:"stall_cycles"`
	WastedCycles sim.Cycles `json:"wasted_cycles"`

	// Cascades counts aborts whose killer had itself aborted during the
	// victim's attempt (lost work compounding downstream); MaxCascadeDepth
	// is the longest such chain. FriendlyFire counts unordered core pairs
	// that killed each other at least once each.
	Cascades        uint64 `json:"cascades"`
	MaxCascadeDepth int    `json:"max_cascade_depth"`
	FriendlyFire    uint64 `json:"friendly_fire_pairs"`
}

// CauseStat is one cause's share of events and lost cycles.
type CauseStat struct {
	Cause  string     `json:"cause"`
	Events uint64     `json:"events"`
	Cycles sim.Cycles `json:"cycles"`
}

// SiteStat is one transaction begin site's conflict profile.
type SiteStat struct {
	// Site is the begin site id; the all-ones sentinel renders as -1
	// (non-transactional agent).
	Site           int64      `json:"site"`
	NACKs          uint64     `json:"nacks"`
	Aborts         uint64     `json:"aborts"`
	TrueConflicts  uint64     `json:"true_conflicts"`
	FalsePositives uint64     `json:"false_positives"`
	StallCycles    sim.Cycles `json:"stall_cycles"`
	WastedCycles   sim.Cycles `json:"wasted_cycles"`
	// Kills is the number of conflicts where this site was the refusing
	// holder or the killer — hot sites surface from both directions.
	Kills uint64 `json:"kills"`
}

// LineStat is one cache line's conflict profile.
type LineStat struct {
	Line           sim.Line   `json:"line"`
	NACKs          uint64     `json:"nacks"`
	Aborts         uint64     `json:"aborts"`
	TrueConflicts  uint64     `json:"true_conflicts"`
	FalsePositives uint64     `json:"false_positives"`
	StallCycles    sim.Cycles `json:"stall_cycles"`
	WastedCycles   sim.Cycles `json:"wasted_cycles"`
	// MaxSharers is the directory's largest observed sharer count for the
	// line at conflict time (contention degree).
	MaxSharers int `json:"max_sharers"`
}

// Edge is one killer→victim edge of the abort-causality graph.
type Edge struct {
	Killer       int        `json:"killer"`
	Victim       int        `json:"victim"`
	Aborts       uint64     `json:"aborts"`
	WastedCycles sim.Cycles `json:"wasted_cycles"`
	// Mutual marks friendly fire: the reverse edge also has aborts.
	Mutual bool `json:"mutual,omitempty"`
}

// Fold is one site→line→cause stack with its lost-cycle weight (the
// folded-stack profile in structured form).
type Fold struct {
	Site   int64      `json:"site"`
	Line   sim.Line   `json:"line"`
	HasLin bool       `json:"has_line"`
	Cause  string     `json:"cause"`
	Cycles sim.Cycles `json:"cycles"`
}

// Report is a run's full conflict-forensics output. Every slice is
// sorted deterministically (hottest first, ties broken by id), so two
// replays of the same (config, seed) marshal to identical JSON.
type Report struct {
	Scheme  string      `json:"scheme,omitempty"`
	App     string      `json:"app,omitempty"`
	Cores   int         `json:"cores"`
	Seed    uint64      `json:"seed"`
	Summary Summary     `json:"summary"`
	Causes  []CauseStat `json:"causes"`
	Sites   []SiteStat  `json:"sites"`
	Lines   []LineStat  `json:"lines"`
	Edges   []Edge      `json:"edges"`
	Folds   []Fold      `json:"folds"`
}

// siteID widens a site to the JSON representation (NoSite → -1).
func siteID(site uint32) int64 {
	if site == NoSite {
		return -1
	}
	return int64(site)
}

// Report freezes the collector's aggregates into a deterministic
// Report. topK bounds the hot-site and hot-line tables (<=0 means
// TopK); edges and folds are always complete.
func (f *Collector) Report(topK int) *Report {
	if topK <= 0 {
		topK = TopK
	}
	r := &Report{Cores: f.cores}

	r.Summary = Summary{
		NACKs:           f.nacks,
		Injected:        f.injected,
		Aborts:          f.aborts,
		SigHits:         f.sigHits,
		PreciseHits:     f.preciseHits,
		TrueConflicts:   f.trueConf,
		FalsePositives:  f.falsePos,
		StallCycles:     f.stallCycles,
		WastedCycles:    f.wastedCycles,
		Cascades:        f.cascades,
		MaxCascadeDepth: f.maxCascadeDepth,
	}
	if f.sigHits > 0 {
		r.Summary.FalsePositiveRate = float64(f.falsePos) / float64(f.sigHits)
	}
	if f.aliasN > 0 {
		r.Summary.PredictedAliasRate = f.aliasSum / float64(f.aliasN)
	}

	for c := Cause(0); c < numCauses; c++ {
		if f.causes[c].events == 0 {
			continue
		}
		r.Causes = append(r.Causes, CauseStat{
			Cause:  c.String(),
			Events: f.causes[c].events,
			Cycles: f.causes[c].cycles,
		})
	}

	//suv:orderinsensitive the map is drained into a slice sorted below
	for site, s := range f.sites {
		r.Sites = append(r.Sites, SiteStat{
			Site:           siteID(site),
			NACKs:          s.nacks,
			Aborts:         s.aborts,
			TrueConflicts:  s.truePos,
			FalsePositives: s.falsePos,
			StallCycles:    s.stall,
			WastedCycles:   s.wasted,
			Kills:          s.killed,
		})
	}
	sort.Slice(r.Sites, func(i, j int) bool {
		a, b := &r.Sites[i], &r.Sites[j]
		if aw, bw := a.StallCycles+a.WastedCycles, b.StallCycles+b.WastedCycles; aw != bw {
			return aw > bw
		}
		return a.Site < b.Site
	})
	if len(r.Sites) > topK {
		r.Sites = r.Sites[:topK]
	}

	for i := range f.lineAggs {
		l := &f.lineAggs[i]
		r.Lines = append(r.Lines, LineStat{
			Line:           l.line,
			NACKs:          l.nacks,
			Aborts:         l.aborts,
			TrueConflicts:  l.truePos,
			FalsePositives: l.falsePos,
			StallCycles:    l.stall,
			WastedCycles:   l.wasted,
			MaxSharers:     l.maxSharers,
		})
	}
	sort.Slice(r.Lines, func(i, j int) bool {
		a, b := &r.Lines[i], &r.Lines[j]
		if aw, bw := a.StallCycles+a.WastedCycles, b.StallCycles+b.WastedCycles; aw != bw {
			return aw > bw
		}
		return a.Line < b.Line
	})
	if len(r.Lines) > topK {
		r.Lines = r.Lines[:topK]
	}

	for k := 0; k < f.cores; k++ {
		for v := 0; v < f.cores; v++ {
			e := f.edges[k*f.cores+v]
			if e.aborts == 0 {
				continue
			}
			mutual := f.edges[v*f.cores+k].aborts > 0
			r.Edges = append(r.Edges, Edge{
				Killer: k, Victim: v,
				Aborts: e.aborts, WastedCycles: e.wasted,
				Mutual: mutual,
			})
			if mutual && k < v {
				r.Summary.FriendlyFire++
			}
		}
	}
	sort.Slice(r.Edges, func(i, j int) bool {
		a, b := &r.Edges[i], &r.Edges[j]
		if a.WastedCycles != b.WastedCycles {
			return a.WastedCycles > b.WastedCycles
		}
		if a.Killer != b.Killer {
			return a.Killer < b.Killer
		}
		return a.Victim < b.Victim
	})

	//suv:orderinsensitive the map is drained into a slice sorted below
	for k, w := range f.folds {
		r.Folds = append(r.Folds, Fold{
			Site:   siteID(k.site),
			Line:   k.line,
			HasLin: k.line != NoLine,
			Cause:  k.cause.String(),
			Cycles: w,
		})
	}
	sort.Slice(r.Folds, func(i, j int) bool {
		a, b := &r.Folds[i], &r.Folds[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Cause < b.Cause
	})
	return r
}

// WriteJSON marshals the report with indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders a compact human-readable digest of the report.
func (r *Report) String() string {
	s := &r.Summary
	return fmt.Sprintf(
		"forensics: nacks=%d aborts=%d sig-hits=%d true=%d false-pos=%d (%.2f%%) stall=%d wasted=%d cascades=%d(depth<=%d) friendly-fire=%d",
		s.NACKs, s.Aborts, s.SigHits, s.TrueConflicts, s.FalsePositives,
		100*s.FalsePositiveRate, s.StallCycles, s.WastedCycles,
		s.Cascades, s.MaxCascadeDepth, s.FriendlyFire)
}
