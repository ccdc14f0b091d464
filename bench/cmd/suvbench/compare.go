package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchmarkDef is the part of BENCHMARK.json suvbench reads.
type benchmarkDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDef
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// rule is how compare judges one metric.
type rule struct {
	better string  // "lower" or "higher"
	bound  float64 // share of the base median a metric may worsen by; NaN = no bound
}

// verdict judges change against base under r: "regressed" when the
// change's median is worse by more than the bound, "improved" when
// better by more, else "unchanged" — or "unresolved" when either side's
// spread exceeds the bound, unless every change value beats every base
// value. failed_frac is judged absolutely: a change run that fails more
// ops than every base run regresses.
func verdict(name string, base, change []float64, r rule) string {
	if name == "failed_frac" {
		if slices.Max(change) > slices.Max(base) {
			return "regressed"
		}
		return "unchanged"
	}
	if math.IsNaN(r.bound) {
		return "no bound"
	}
	sign := 1.0 // positive worse
	allBetter := slices.Max(change) < slices.Min(base)
	if r.better == "higher" {
		sign = -1
		allBetter = slices.Min(change) > slices.Max(base)
	}
	if spread(base) > r.bound || spread(change) > r.bound {
		if allBetter {
			return "improved"
		}
		return "unresolved"
	}
	mb := median(base)
	worse := sign * (median(change) - mb) / math.Abs(mb)
	switch {
	case worse > r.bound:
		return "regressed"
	case worse < -r.bound:
		return "improved"
	}
	return "unchanged"
}

// compareMain implements `suvbench compare [-force] [-spec BENCHMARK.json]
// base/*.json -- change/*.json`: per workload and metric, each side's
// median and quartiles, and a verdict under the BENCHMARK.json bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("suvbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	force := fs.Bool("force", false, "compare records taken on different host shapes")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := slices.Index(rest, "--")
	if sep < 1 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: suvbench compare [-force] [-spec BENCHMARK.json] base/*.json -- change/*.json")
		return 2
	}
	def, err := readBenchmarkDef(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "suvbench compare:", err)
		return 1
	}
	rules := map[string]rule{}
	for _, m := range def.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	for _, m := range def.PerLayer {
		rules[m.Name] = rule{m.Better, math.NaN()}
	}
	var recs [2][]*record
	for side, paths := range [2][]string{rest[:sep], rest[sep+1:]} {
		for _, p := range paths {
			r, err := readRecord(p)
			if err != nil {
				fmt.Fprintln(stderr, "suvbench compare:", err)
				return 1
			}
			recs[side] = append(recs[side], r)
		}
	}
	shape := func(h host) host { h.Go = ""; return h }
	first := shape(recs[0][0].Host)
	for _, side := range recs {
		for _, r := range side {
			if shape(r.Host) != first && !*force {
				fmt.Fprintf(stderr, "suvbench compare: host shapes differ (%+v vs %+v); rerun on one host shape or pass -force\n", first, shape(r.Host))
				return 1
			}
		}
	}

	// values[side][workload][metric] lists one value per record.
	var values [2]map[string]map[string][]float64
	var order []string
	for side := range recs {
		values[side] = map[string]map[string][]float64{}
		for _, r := range recs[side] {
			for _, w := range r.Workloads {
				if values[side][w.Name] == nil {
					values[side][w.Name] = map[string][]float64{}
					if side == 0 && !slices.Contains(order, w.Name) {
						order = append(order, w.Name)
					}
				}
				for name, v := range w.Metrics {
					values[side][w.Name][name] = append(values[side][w.Name][name], v.Value)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%-15s %-28s %-36s %-36s %8s  %s\n", "workload", "metric", "base median [q1 q3] n", "change median [q1 q3] n", "delta", "verdict")
	regressed := false
	for _, wl := range order {
		names := make([]string, 0, len(values[0][wl]))
		for name := range values[0][wl] {
			if _, ok := values[1][wl][name]; ok {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			b, c := values[0][wl][name], values[1][wl][name]
			r, ok := rules[name]
			if !ok {
				r = rule{"lower", math.NaN()}
			}
			v := verdict(name, b, c, r)
			regressed = regressed || v == "regressed"
			delta := "-"
			if mb := median(b); mb != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(median(c)-mb)/math.Abs(mb))
			}
			fmt.Fprintf(stdout, "%-15s %-28s %-36s %-36s %8s  %s\n", wl, name, summary(b), summary(c), delta, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func summary(xs []float64) string {
	q, ok := quartiles(xs)
	if !ok {
		return fmt.Sprintf("%.4g [- -] %d", median(xs), len(xs))
	}
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(xs), q[0], q[2], len(xs))
}
