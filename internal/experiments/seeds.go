package experiments

import (
	"fmt"
	"math"
	"strings"

	"suvtm/internal/stats"
)

// stdev returns the sample standard deviation of xs (0 below two
// samples).
func stdev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := stats.Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// SeedStudy is a multi-seed Figure 6 style comparison: per-app speedups
// with seed spread, establishing that the headline numbers are not an
// artifact of one interleaving.
type SeedStudy struct {
	Apps    []string
	Seeds   []uint64
	Base    Scheme
	Mine    Scheme
	PerSeed map[uint64]map[string]float64 // seed -> app -> speedup
}

// RunSeedStudy measures mine-vs-base speedups per app per seed.
func RunSeedStudy(opts Options, base, mine Scheme, seeds []uint64) (*SeedStudy, error) {
	apps := opts.apps()
	study := &SeedStudy{Apps: apps, Seeds: seeds, Base: base, Mine: mine, PerSeed: map[uint64]map[string]float64{}}
	var specs []Spec
	for _, seed := range seeds {
		for _, app := range apps {
			for _, s := range []Scheme{base, mine} {
				specs = append(specs, Spec{App: app, Scheme: s, Cores: opts.Cores, Seed: seed, Scale: opts.Scale})
			}
		}
	}
	outs, err := RunManyWith(specs, opts.batch())
	if err != nil {
		return nil, err
	}
	i := 0
	for _, seed := range seeds {
		row := map[string]float64{}
		for _, app := range apps {
			b, m := outs[i], outs[i+1]
			i += 2
			if b.CheckErr != nil || m.CheckErr != nil {
				return nil, fmt.Errorf("%s seed %d: %v %v", app, seed, b.CheckErr, m.CheckErr)
			}
			row[app] = Speedup(b, m)
		}
		study.PerSeed[seed] = row
	}
	return study, nil
}

// MeanSpeedup returns the across-seed mean of per-app geometric-mean
// speedups and its standard deviation.
func (s *SeedStudy) MeanSpeedup() (mean, sd float64) {
	var perSeed []float64
	for _, seed := range s.Seeds {
		var ratios []float64
		for _, app := range s.Apps {
			ratios = append(ratios, 1+s.PerSeed[seed][app])
		}
		perSeed = append(perSeed, stats.GeoMean(ratios)-1)
	}
	return stats.Mean(perSeed), stdev(perSeed)
}

// Render prints the per-seed speedups and the summary.
func (s *SeedStudy) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Seed study: %s vs %s over %d seeds\n", s.Mine, s.Base, len(s.Seeds))
	header := append([]string{"seed"}, s.Apps...)
	header = append(header, "geomean")
	tab := stats.NewTable(header...)
	for _, seed := range s.Seeds {
		row := []string{fmt.Sprintf("%d", seed)}
		var ratios []float64
		for _, app := range s.Apps {
			sp := s.PerSeed[seed][app]
			ratios = append(ratios, 1+sp)
			row = append(row, stats.Pct(sp))
		}
		row = append(row, stats.Pct(stats.GeoMean(ratios)-1))
		tab.AddRow(row...)
	}
	sb.WriteString(tab.String())
	mean, sd := s.MeanSpeedup()
	fmt.Fprintf(&sb, "mean speedup %.1f%% (stdev %.1f%% across seeds)\n", 100*mean, 100*sd)
	return sb.String()
}
