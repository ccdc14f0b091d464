// Benchmarks that regenerate every table and figure of the paper's
// evaluation section. Each benchmark runs the corresponding experiment
// at a reduced workload scale (simulations are deterministic, so the
// numbers are stable across iterations) and reports the simulated-cycle
// metrics the paper plots; `go test -bench=. -benchmem` prints them all.
//
// Full-scale versions of the same experiments are driven by
// cmd/stampbench and cmd/sweep; EXPERIMENTS.md records paper-vs-measured
// at scale 1.0.
package suvtm_test

import (
	"fmt"
	"testing"

	"suvtm"
	"suvtm/internal/cactimodel"
	"suvtm/internal/experiments"
	"suvtm/internal/workload"
)

// benchScale keeps a full -bench=. run to roughly a minute.
const benchScale = 0.15

// BenchmarkTable1AbortRatios measures the abort ratios of the eight
// STAMP-analogue applications under the LogTM-SE baseline (the measured
// companion to the paper's Table I survey).
func BenchmarkTable1AbortRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := experiments.RunTable1(experiments.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var worst float64
			for _, app := range t1.Measured.Apps {
				r := t1.Measured.Get(app, experiments.LogTMSE).Counters.AbortRatio()
				if r > worst {
					worst = r
				}
			}
			b.ReportMetric(100*worst, "max-abort-%")
		}
	}
}

// BenchmarkTable4WorkloadGen measures generator throughput for all eight
// applications (Table IV characteristics are printed by stampbench).
func BenchmarkTable4WorkloadGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range workload.StampApps {
			gen, err := workload.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			memory := suvtm.NewMemory()
			alloc := suvtm.NewAllocator(0x100000, 1<<33)
			app := gen(workload.GenConfig{Cores: 16, Seed: 1, Scale: benchScale}, alloc, memory)
			if app.TotalOps() == 0 {
				b.Fatal("empty app")
			}
		}
	}
}

// BenchmarkFig6 runs one (application, scheme) simulation per
// sub-benchmark — the full matrix is the paper's Figure 6 — and reports
// simulated cycles and the abort ratio.
func BenchmarkFig6(b *testing.B) {
	for _, app := range workload.StampApps {
		for _, scheme := range experiments.Fig6Schemes {
			b.Run(fmt.Sprintf("%s/%s", app, scheme), func(b *testing.B) {
				var out *experiments.Outcome
				var err error
				for i := 0; i < b.N; i++ {
					out, err = suvtm.Run(suvtm.Spec{App: app, Scheme: scheme, Scale: benchScale})
					if err != nil {
						b.Fatal(err)
					}
					if out.CheckErr != nil {
						b.Fatal(out.CheckErr)
					}
				}
				b.ReportMetric(float64(out.Cycles), "sim-cycles")
				b.ReportMetric(100*out.Counters.AbortRatio(), "abort-%")
			})
		}
	}
}

// BenchmarkFig6Headline runs the whole Figure 6 matrix and reports the
// paper's headline speedups (SUV-TM over LogTM-SE and FasTM).
func BenchmarkFig6Headline(b *testing.B) {
	var fig *experiments.Fig6
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.RunFig6(experiments.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*fig.MeanSpeedup(experiments.LogTMSE, experiments.SUVTM, false), "vs-logtm-%")
	b.ReportMetric(100*fig.MeanSpeedup(experiments.FasTM, experiments.SUVTM, false), "vs-fastm-%")
	b.ReportMetric(100*fig.MeanSpeedup(experiments.LogTMSE, experiments.SUVTM, true), "vs-logtm-hc-%")
	b.ReportMetric(100*fig.MeanSpeedup(experiments.FasTM, experiments.SUVTM, true), "vs-fastm-hc-%")
}

// BenchmarkTable5Overflows runs the overflow-statistics experiment on
// the three coarse-grained applications and reports how many transaction
// attempts overflowed the L1 data cache vs the redirect table.
func BenchmarkTable5Overflows(b *testing.B) {
	var t5 *experiments.Table5
	var err error
	for i := 0; i < b.N; i++ {
		t5, err = experiments.RunTable5(experiments.Options{Scale: 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	var cacheOv, tableOv uint64
	for _, app := range t5.Mtx.Apps {
		cacheOv += t5.Mtx.Get(app, experiments.LogTMSE).Counters.CacheOverflowTx
		tableOv += t5.Mtx.Get(app, experiments.SUVTM).Counters.TableOverflowTx
	}
	b.ReportMetric(float64(cacheOv), "cache-overflow-tx")
	b.ReportMetric(float64(tableOv), "table-overflow-tx")
}

// BenchmarkFig7 sweeps the first-level redirect-table size and reports
// the miss rate and normalized execution time at each point.
func BenchmarkFig7(b *testing.B) {
	for _, size := range experiments.Fig7Sizes {
		size := size
		b.Run(fmt.Sprintf("entries-%d", size), func(b *testing.B) {
			var out *experiments.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				out, err = suvtm.Run(suvtm.Spec{
					App: "yada", Scheme: suvtm.SUVTM, Scale: benchScale,
					Tweak: func(cfg *suvtm.MachineConfig) { cfg.Redirect.L1Entries = size },
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Cycles), "sim-cycles")
			b.ReportMetric(100*out.Counters.RedirectL1MissRate(), "L1-table-miss-%")
		})
	}
}

// BenchmarkFig8Size sweeps the shared second-level table size.
func BenchmarkFig8Size(b *testing.B) {
	for _, size := range experiments.Fig8Sizes {
		size := size
		b.Run(fmt.Sprintf("entries-%d", size), func(b *testing.B) {
			var out *experiments.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				out, err = suvtm.Run(suvtm.Spec{
					App: "yada", Scheme: suvtm.SUVTM, Scale: benchScale,
					Tweak: func(cfg *suvtm.MachineConfig) { cfg.Redirect.L2Entries = size },
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Cycles), "sim-cycles")
		})
	}
}

// BenchmarkFig8Latency sweeps the second-level table access latency.
func BenchmarkFig8Latency(b *testing.B) {
	for _, lat := range experiments.Fig8Latencies {
		lat := lat
		b.Run(fmt.Sprintf("latency-%d", lat), func(b *testing.B) {
			var out *experiments.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				out, err = suvtm.Run(suvtm.Spec{
					App: "yada", Scheme: suvtm.SUVTM, Scale: benchScale,
					Tweak: func(cfg *suvtm.MachineConfig) { cfg.Redirect.L2Latency = lat },
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Cycles), "sim-cycles")
		})
	}
}

// BenchmarkFig9 runs one (application, DynTM variant) simulation per
// sub-benchmark — the paper's Figure 9 — and reports simulated cycles.
func BenchmarkFig9(b *testing.B) {
	for _, app := range workload.StampApps {
		for _, scheme := range experiments.Fig9Schemes {
			b.Run(fmt.Sprintf("%s/%s", app, scheme), func(b *testing.B) {
				var out *experiments.Outcome
				var err error
				for i := 0; i < b.N; i++ {
					out, err = suvtm.Run(suvtm.Spec{App: app, Scheme: scheme, Scale: benchScale})
					if err != nil {
						b.Fatal(err)
					}
					if out.CheckErr != nil {
						b.Fatal(out.CheckErr)
					}
				}
				b.ReportMetric(float64(out.Cycles), "sim-cycles")
				b.ReportMetric(float64(out.Counters.LazyTx), "lazy-tx")
			})
		}
	}
}

// BenchmarkFig9Headline runs the whole Figure 9 matrix and reports the
// DynTM+SUV speedups.
func BenchmarkFig9Headline(b *testing.B) {
	var fig *experiments.Fig9
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.RunFig9(experiments.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*fig.MeanSpeedup(experiments.DynTM, experiments.DynTMSUV, false), "vs-dyntm-%")
	b.ReportMetric(100*fig.MeanSpeedup(experiments.DynTM, experiments.DynTMSUV, true), "vs-dyntm-hc-%")
}

// BenchmarkTable6Processors exercises the static processor table
// rendering (Table VI).
func BenchmarkTable6Processors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if cactimodel.RenderTable6() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable7CactiModel evaluates the analytical hardware model at
// every technology node (Table VII) and reports the 45 nm access time.
func BenchmarkTable7CactiModel(b *testing.B) {
	var access float64
	for i := 0; i < b.N; i++ {
		for _, n := range cactimodel.Nodes {
			est, err := cactimodel.FullyAssociative(n.Nm, 512, 64)
			if err != nil {
				b.Fatal(err)
			}
			if n.Nm == 45 {
				access = est.AccessNs
			}
		}
	}
	b.ReportMetric(access, "45nm-access-ns")
}

// BenchmarkFig1IsolationWindows measures the mean writer isolation
// window per scheme — the paper's Figure 1 mechanism, quantified.
func BenchmarkFig1IsolationWindows(b *testing.B) {
	var fig *experiments.Fig1
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.RunFig1(experiments.Options{Scale: benchScale, Apps: []string{"yada", "bayes"}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.MeanWindow("yada", experiments.LogTMSE), "logtm-window-cyc")
	b.ReportMetric(fig.MeanWindow("yada", experiments.SUVTM), "suv-window-cyc")
}

// BenchmarkScaling runs the weak-scaling study (extra experiment): SUV's
// shorter isolation windows must hold efficiency as cores grow.
func BenchmarkScaling(b *testing.B) {
	var sc *experiments.Scaling
	var err error
	for i := 0; i < b.N; i++ {
		sc, err = experiments.RunScaling("intruder",
			[]experiments.Scheme{experiments.LogTMSE, experiments.SUVTM},
			[]int{1, 4, 16}, experiments.Options{Seed: 1, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sc.Efficiency(experiments.LogTMSE)[2], "logtm-eff-16c")
	b.ReportMetric(sc.Efficiency(experiments.SUVTM)[2], "suv-eff-16c")
}

// BenchmarkTable3Machine measures raw simulator throughput on the
// Table III configuration (simulated cycles per wall-clock second),
// the "how fast is this simulator" number.
func BenchmarkTable3Machine(b *testing.B) {
	var cycles float64
	for i := 0; i < b.N; i++ {
		out, err := suvtm.Run(suvtm.Spec{App: "vacation", Scheme: suvtm.SUVTM, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		cycles += float64(out.Cycles)
	}
	b.ReportMetric(cycles/float64(b.N), "sim-cycles/run")
}
