package experiments

import (
	"fmt"
	"strings"

	"suvtm/internal/stats"
	"suvtm/internal/workload"
)

// Options parameterize an experiment (defaults: 16 cores, seed 1,
// scale 1.0, all eight STAMP-analogue apps).
type Options struct {
	Cores int
	Seed  uint64
	Scale float64
	Apps  []string
	// Jobs bounds the concurrent simulations (0 = GOMAXPROCS).
	Jobs int
	// OnProgress, when non-nil, receives deterministic count-based
	// fleet-progress snapshots while the experiment's batches run (see
	// BatchOptions.OnProgress).
	OnProgress func(FleetProgress)
}

func (o Options) apps() []string {
	if len(o.Apps) == 0 {
		return workload.StampApps
	}
	return o.Apps
}

// batch converts the experiment options into per-batch fleet options.
func (o Options) batch() BatchOptions {
	return BatchOptions{Jobs: o.Jobs, OnProgress: o.OnProgress}
}

// Matrix holds the outcomes of an apps x schemes experiment.
type Matrix struct {
	Apps     []string
	Schemes  []Scheme
	Outcomes map[string]map[Scheme]*Outcome
}

// RunMatrix simulates every (app, scheme) pair concurrently.
func RunMatrix(opts Options, schemes []Scheme) (*Matrix, error) {
	apps := opts.apps()
	var specs []Spec
	for _, app := range apps {
		for _, s := range schemes {
			specs = append(specs, Spec{
				App: app, Scheme: s,
				Cores: opts.Cores, Seed: opts.Seed, Scale: opts.Scale,
			})
		}
	}
	outcomes, err := RunManyWith(specs, opts.batch())
	if err != nil {
		return nil, err
	}
	mtx := &Matrix{Apps: apps, Schemes: schemes, Outcomes: make(map[string]map[Scheme]*Outcome)}
	for _, out := range outcomes {
		if out == nil {
			continue
		}
		if out.CheckErr != nil {
			return nil, fmt.Errorf("%s under %s: %w", out.Spec.App, out.Spec.Scheme, out.CheckErr)
		}
		row := mtx.Outcomes[out.Spec.App]
		if row == nil {
			row = make(map[Scheme]*Outcome)
			mtx.Outcomes[out.Spec.App] = row
		}
		row[out.Spec.Scheme] = out
	}
	return mtx, nil
}

// Get returns the outcome for (app, scheme).
func (m *Matrix) Get(app string, s Scheme) *Outcome { return m.Outcomes[app][s] }

// SpeedupOver returns per-app speedups of scheme "mine" over scheme
// "base" (cycles(base)/cycles(mine) - 1), keyed by app.
func (m *Matrix) SpeedupOver(base, mine Scheme) map[string]float64 {
	out := make(map[string]float64, len(m.Apps))
	for _, app := range m.Apps {
		out[app] = Speedup(m.Get(app, base), m.Get(app, mine))
	}
	return out
}

// MeanSpeedup returns the average speedup of mine over base across apps
// (geometric mean of the cycle ratios, expressed as ratio-1, the way the
// paper summarizes "outperforms by N%"). If onlyHighContention is true,
// only the paper's five high-contention applications count.
func (m *Matrix) MeanSpeedup(base, mine Scheme, onlyHighContention bool) float64 {
	var ratios []float64
	for _, app := range m.Apps {
		if onlyHighContention && !workload.IsHighContention(app) {
			continue
		}
		b, s := m.Get(app, base), m.Get(app, mine)
		if b == nil || s == nil || s.Cycles == 0 {
			continue
		}
		ratios = append(ratios, float64(b.Cycles)/float64(s.Cycles))
	}
	return stats.GeoMean(ratios) - 1
}

// RenderBreakdown prints a paper-style normalized execution-time
// breakdown: for each app, one row per scheme with the total normalized
// to the first scheme and each component's share of that normalized
// total (this is exactly what the stacked bars of Figures 6 and 9 show).
func (m *Matrix) RenderBreakdown(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	header := []string{"app", "scheme", "norm"}
	for comp := stats.Component(0); comp < stats.NumComponents; comp++ {
		header = append(header, comp.String())
	}
	header = append(header, "cycles", "commits", "aborts", "abort%")
	tab := stats.NewTable(header...)
	for _, app := range m.Apps {
		base := m.Get(app, m.Schemes[0])
		for _, s := range m.Schemes {
			out := m.Get(app, s)
			if out == nil {
				continue
			}
			norm := float64(out.Cycles) / float64(base.Cycles)
			row := []string{app, string(s), stats.F3(norm)}
			total := float64(out.Breakdown.Total())
			for comp := stats.Component(0); comp < stats.NumComponents; comp++ {
				share := 0.0
				if total > 0 {
					share = float64(out.Breakdown.Cycles[comp]) / total
				}
				row = append(row, stats.F3(share*norm))
			}
			row = append(row,
				fmt.Sprintf("%d", out.Cycles),
				fmt.Sprintf("%d", out.Counters.TxCommitted),
				fmt.Sprintf("%d", out.Counters.TxAborted),
				stats.Pct(out.Counters.AbortRatio()),
			)
			tab.AddRow(row...)
		}
	}
	sb.WriteString(tab.String())
	return sb.String()
}
