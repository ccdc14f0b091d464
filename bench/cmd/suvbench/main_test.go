package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"suvtm/internal/experiments"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Fatal("p95 of 199 samples leaves 9 beyond it and must be refused")
	}
	xs = append(xs, 200)
	p95, err := percentile(xs, 95)
	if err != nil || p95 != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", p95, err)
	}
	if m := median([]float64{3}); m != 3 {
		t.Fatalf("median of one sample = %v", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3, 4, 5], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		if got, ok := quartiles(c.xs); !ok || got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func microSpec(scheme experiments.Scheme) experiments.Spec {
	return experiments.Spec{App: "counter", Scheme: scheme, Cores: 4, Seed: 3, Scale: 0.3}
}

func TestDigestStability(t *testing.T) {
	spec := sweepSpecs(opSeed(1, 0), 0.05)[2]
	a, err := experiments.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if specDigest(a) != specDigest(b) {
		t.Fatal("two runs of one spec digest differently")
	}
	other := sweepSpecs(opSeed(1, 0), 0.05)[3]
	c := *a
	c.Spec = other
	if specDigest(&c) == specDigest(a) {
		t.Fatal("the redirect-table size the Tweak sets is not part of the digest")
	}
	res := *a.Result
	res.Counters.NACKsSent++
	c = *a
	c.Result = &res
	if specDigest(&c) == specDigest(a) {
		t.Fatal("a counter change does not change the digest")
	}
	f1, f2 := newFolder(), newFolder()
	f1.add(specDigest(a))
	f1.add(specDigest(&c))
	f2.add(specDigest(&c))
	f2.add(specDigest(a))
	if f1.sum() == f2.sum() {
		t.Fatal("the workload digest ignores spec order")
	}
}

func TestDecoratorBitIdentical(t *testing.T) {
	tr := newTracer()
	for _, k := range schemeKeys {
		s := k.scheme
		spec := microSpec(s)
		bare, err := experiments.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*arena{nil, tr.arenas[0]} {
			got, err := tr.run(spec, a, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := check([]*experiments.Outcome{got}, [][32]byte{specDigest(bare)}); err != nil {
				t.Errorf("%s: the decorated run differs from the bare one (arena %t): %v", s, a != nil, err)
			}
		}
	}
	if tr.layers.calls[callBegin] == 0 || tr.layers.calls[callCommit] == 0 {
		t.Fatalf("the decorator counted no calls: %v", tr.layers.calls)
	}
}

func readDef(t *testing.T) *benchmarkDef {
	t.Helper()
	def, err := readBenchmarkDef("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	def := readDef(t)
	if def.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", def.RunSeconds, defaultSeconds)
	}
	var names []string
	for i, w := range def.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("%s: why differs from the workload table", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	var e2e, layer []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range def.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, code %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer %v, code %v", layer, perLayer)
	}
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks that it emits every BENCHMARK.json metric of the mode with
// its unit, on a result line with exactly the documented keys, and that no
// op failed.
func TestSmokeEveryWorkload(t *testing.T) {
	def := readDef(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range def.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{workload: w.name, seed: 1, seconds: 60, scale: 0.05, maxOps: 3, trace: traced})
			if err != nil {
				t.Fatalf("%s (trace %t): %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted != 3 {
				t.Errorf("%s (trace %t): %d of %d ops failed: %v", w.name, traced, res.Failed, res.Attempted, res.Errors)
			}
			if !traced && res.Metrics["failed_frac"].Value != 0 {
				t.Errorf("%s: failed_frac %v", w.name, res.Metrics["failed_frac"].Value)
			}
			line, err := resultLine(res)
			if err != nil {
				t.Fatalf("%s (trace %t): %v", w.name, traced, err)
			}
			var got struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Fatalf("%s: result line %s: %v", w.name, line, err)
			}
			if len(got.Metrics) != len(units[traced]) {
				t.Errorf("%s (trace %t): %d metrics, BENCHMARK.json lists %d", w.name, traced, len(got.Metrics), len(units[traced]))
			}
			for name, unit := range units[traced] {
				m, ok := got.Metrics[name]
				if !ok || m.Value == nil || math.IsNaN(*m.Value) || m.Unit != unit {
					t.Errorf("%s (trace %t): metric %s = %+v, want unit %s", w.name, traced, name, m, unit)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := rule{"lower", 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		base   []float64
		change []float64
		r      rule
		want   string
	}{
		{"op_ms.p50", steady, []float64{100, 102, 98, 101, 99}, lower, "unchanged"},
		{"op_ms.p50", steady, []float64{120, 121, 119, 120, 120}, lower, "regressed"},
		{"op_ms.p50", steady, []float64{80, 81, 79, 80, 80}, lower, "improved"},
		{"sim_mcycles_per_s", steady, []float64{80, 81, 79, 80, 80}, rule{"higher", 0.10}, "regressed"},
		{"op_ms.p50", steady, []float64{60, 140, 100, 70, 130}, lower, "unresolved"},
		{"op_ms.p50", []float64{60, 140, 100, 70, 130}, []float64{50, 52, 51, 50, 50}, lower, "improved"},
		{"failed_frac", []float64{0, 0, 0}, []float64{0, 0, 0}, rule{"lower", math.NaN()}, "unchanged"},
		{"failed_frac", []float64{0, 0, 0}, []float64{0, 0.01, 0}, rule{"lower", math.NaN()}, "regressed"},
		{"htm.run_ms", steady, steady, rule{"lower", math.NaN()}, "no bound"},
	} {
		if got := verdict(c.name, c.base, c.change, c.r); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.name, c.base, c.change, got, c.want)
		}
	}
}

func TestCompareRefusesMixedHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host) string {
		p := dir + "/" + name
		r := record{Seed: 1, Host: h, Workloads: []workloadResult{{Name: "grid-cold",
			Metrics: map[string]metricValue{"op_ms.p50": {100, "ms", 5}}}}}
		if err := writeRecord(p, &r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", host{NProc: 2, GOMAXPROCS: 2, CPU: "x"})
	b := write("b.json", host{NProc: 4, GOMAXPROCS: 4, CPU: "x"})
	var out, errOut bytes.Buffer
	args := []string{"-spec", "../../../BENCHMARK.json", a, "--", b}
	if code := compareMain(args, &out, &errOut); code == 0 {
		t.Fatal("compare accepted records from two host shapes")
	}
	out.Reset()
	if code := compareMain(append([]string{"-force"}, args...), &out, &errOut); code != 0 || !bytes.Contains(out.Bytes(), []byte("unchanged")) {
		t.Fatalf("compare -force: code %d, output %s %s", code, out.String(), errOut.String())
	}
}
