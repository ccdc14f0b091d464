package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metricDef names a metric the benchmark reports and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"alloc_mb_per_op", "MiB"},
	{"rss_peak_mb", "MiB"},
}

// perLayer are the traced run's metrics, named by module. BENCHMARK.json
// lists the same names and units.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.gen_ms", "ms"},
		{"workload.program_kops", "kops"},
		{"workload.check_ms", "ms"},
		{"fleet.memo_replay_ratio", "ratio"},
		{"fleet.arena_reuse_ratio", "ratio"},
		{"fleet.tail_ms", "ms"},
		{"runcache.hit_ratio", "ratio"},
		{"htm.new_ms", "ms"},
		{"htm.run_ms", "ms"},
		{"htm.self_ms", "ms"},
		{"htm.run_ns_per_access", "ns"},
	}
	for _, c := range callNames {
		defs = append(defs, metricDef{"scheme." + c + ".calls", "count"}, metricDef{"scheme." + c + ".ns_per_call", "ns"})
	}
	for _, s := range schemeKeys {
		defs = append(defs, metricDef{"scheme." + s.key + ".ms", "ms"})
	}
	return append(defs,
		metricDef{"htm.sim_kcycles", "kcycles"},
		metricDef{"htm.tx_started", "count"},
		metricDef{"htm.commit_ratio", "ratio"},
		metricDef{"htm.nacks", "count"},
		metricDef{"mem.l1.accesses", "count"},
		metricDef{"mem.l1.hit_ratio", "ratio"},
		metricDef{"mem.l2.accesses", "count"},
		metricDef{"mem.l2.hit_ratio", "ratio"},
		metricDef{"coherence.gets", "count"},
		metricDef{"coherence.getm", "count"},
		metricDef{"redirect.lookups", "count"},
		metricDef{"redirect.l1_hit_ratio", "ratio"},
		metricDef{"signature.summary_filtered", "count"},
		metricDef{"signature.false_positives", "count"},
		metricDef{"observe.export_ms", "ms"},
		metricDef{"observe.export_kb", "KB"},
		metricDef{"observe.chrome_events", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// reportedOnly are metrics an untraced run records and prints beyond
// endToEnd: op_ms.p95 exists only where enough ops ran, and failed_frac
// is 0 on a correct run. Neither can be a bounded metric.
var reportedOnly = []metricDef{{"op_ms.p95", "ms"}, {"failed_frac", "ratio"}}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples behind the value
}

// host is the shape of the machine a record was taken on; compare
// refuses to mix shapes.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostStamp() host {
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: cpuModel()}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workloadResult is one workload's run.
type workloadResult struct {
	Name      string `json:"name"`
	Trace     bool   `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Digest folds the per-spec digests of the pinned ops ("" when fewer
	// ran); Pin says how it compares with digests.json: "match",
	// "mismatch", or "none" when no pin applies to this seed and scale.
	Digest  string                 `json:"digest"`
	Pin     string                 `json:"pin"`
	Metrics map[string]metricValue `json:"metrics"`
	Errors  []string               `json:"errors,omitempty"`
}

// record is the full result of one suvbench invocation.
type record struct {
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Scale     float64          `json:"scale"`
	Host      host             `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeRecord(path string, r *record) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric of res by name, with its unit and
// sample count.
func printResult(w io.Writer, r *record, res *workloadResult) {
	fmt.Fprintf(w, "suvbench %s: seed %d, scale %g, trace %t | nproc %d, GOMAXPROCS %d, %s, %s\n",
		res.Name, r.Seed, r.Scale, res.Trace, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Go, r.Host.CPU)
	defs := append(append([]metricDef(nil), endToEnd...), reportedOnly...)
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %-10s n=%d\n", d.name, v.Value, v.Unit, v.N)
		} else if d.name == "op_ms.p95" {
			fmt.Fprintf(w, "  %-28s %14s %-10s (fewer than %d ops beyond it)\n", d.name, "-", d.unit, minTail)
		}
	}
	fmt.Fprintf(w, "  ops %d attempted, %d failed; digest %s (pin: %s)\n", res.Attempted, res.Failed, orDash(res.Digest), res.Pin)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// resultLine is the one-line JSON result that ends standard output:
// correctness, op counts, and the mode's BENCHMARK.json metrics.
func resultLine(res *workloadResult) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
}
