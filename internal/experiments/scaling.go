package experiments

import (
	"fmt"
	"strings"

	"suvtm/internal/stats"
)

// ScalingCores is the default core-count sweep.
var ScalingCores = []int{1, 2, 4, 8, 16, 32}

// ScalingPoint is one (cores, scheme) measurement. Workload generators
// emit a fixed amount of work *per core*, so ideal scaling keeps cycles
// flat as cores grow; contention makes them rise. Speedup is reported as
// weak-scaling efficiency: cycles(1 core) / cycles(n cores).
type ScalingPoint struct {
	Cores    int
	PerSch   map[Scheme]*Outcome
	AbortPct map[Scheme]float64
}

// Scaling is a core-count study for one application.
type Scaling struct {
	App     string
	Schemes []Scheme
	Points  []ScalingPoint
}

// RunScaling sweeps the core count for app under the given schemes —
// the direct test of the paper's thesis that shorter isolation windows
// expose more thread parallelism. It reads opts' Seed, Scale, Jobs and
// OnProgress; the app and core counts come from its own arguments, so
// opts.Cores and opts.Apps are ignored.
func RunScaling(app string, schemes []Scheme, coreCounts []int, opts Options) (*Scaling, error) {
	if len(coreCounts) == 0 {
		coreCounts = ScalingCores
	}
	var specs []Spec
	for _, n := range coreCounts {
		for _, s := range schemes {
			specs = append(specs, Spec{App: app, Scheme: s, Cores: n, Seed: opts.Seed, Scale: opts.Scale})
		}
	}
	outs, err := RunManyWith(specs, opts.batch())
	if err != nil {
		return nil, err
	}
	sc := &Scaling{App: app, Schemes: schemes}
	i := 0
	for _, n := range coreCounts {
		pt := ScalingPoint{Cores: n, PerSch: map[Scheme]*Outcome{}, AbortPct: map[Scheme]float64{}}
		for _, s := range schemes {
			out := outs[i]
			i++
			if out.CheckErr != nil {
				return nil, fmt.Errorf("%s/%s at %d cores: %w", app, s, n, out.CheckErr)
			}
			pt.PerSch[s] = out
			pt.AbortPct[s] = 100 * out.Counters.AbortRatio()
		}
		sc.Points = append(sc.Points, pt)
	}
	return sc, nil
}

// Efficiency returns scheme's weak-scaling efficiency at each point:
// cycles at 1 core divided by cycles at n cores (1.0 = perfect).
func (sc *Scaling) Efficiency(s Scheme) []float64 {
	base := float64(sc.Points[0].PerSch[s].Cycles)
	out := make([]float64, len(sc.Points))
	for i, pt := range sc.Points {
		out[i] = base / float64(pt.PerSch[s].Cycles)
	}
	return out
}

// Render prints cycles, weak-scaling efficiency and abort ratios per
// core count and scheme.
func (sc *Scaling) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scaling study: %s (work per core is fixed; 1.0 efficiency = perfect weak scaling)\n", sc.App)
	header := []string{"cores"}
	for _, s := range sc.Schemes {
		header = append(header, string(s)+" cycles", string(s)+" eff", string(s)+" abort%")
	}
	tab := stats.NewTable(header...)
	effs := map[Scheme][]float64{}
	for _, s := range sc.Schemes {
		effs[s] = sc.Efficiency(s)
	}
	for i, pt := range sc.Points {
		row := []string{fmt.Sprintf("%d", pt.Cores)}
		for _, s := range sc.Schemes {
			row = append(row,
				fmt.Sprintf("%d", pt.PerSch[s].Cycles),
				stats.F3(effs[s][i]),
				fmt.Sprintf("%.1f", pt.AbortPct[s]))
		}
		tab.AddRow(row...)
	}
	sb.WriteString(tab.String())
	return sb.String()
}
