// Command suvsim runs one transactional application under one
// version-management scheme on the simulated CMP and prints the
// execution-time breakdown and counters — the smallest way to poke at
// the simulator.
//
// Usage:
//
//	suvsim -app intruder -scheme SUV-TM [-cores 16] [-scale 1.0] [-seed 1]
//	suvsim -config        # print the Table III machine configuration
//	suvsim -list          # list available applications
//
// Observability (see EXPERIMENTS.md for a walkthrough):
//
//	suvsim -app intruder -scheme SUV-TM -chrome-trace t.json \
//	       -metrics-csv m.csv -sample-interval 10000 -metrics-json m.json
//
// Conflict forensics (abort attribution, signature false-positive
// accounting, cycle-loss flamegraphs):
//
//	suvsim -app intruder -scheme SUV-TM -conflict-report r.json \
//	       -folded-stacks r.folded
//
// Robustness (deterministic fault injection; see README.md):
//
//	suvsim -app intruder -scheme SUV-TM -faults nack-storm -fault-seed 7
//	suvsim -faults list   # list the built-in fault plans
//	suvsim -chaos         # sweep every scheme x plan x seed, with replay
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"suvtm"
	"suvtm/internal/hostprof"
)

func main() {
	var (
		app    = flag.String("app", "intruder", "application (see -list)")
		scheme = flag.String("scheme", "SUV-TM", "LogTM-SE | FasTM | SUV-TM | DynTM | DynTM+SUV")
		cores  = flag.Int("cores", 16, "simulated cores")
		scale  = flag.Float64("scale", 1.0, "workload scale factor")
		seed   = flag.Uint64("seed", 1, "simulation seed")
		config = flag.Bool("config", false, "print the simulated CMP configuration and exit")
		list   = flag.Bool("list", false, "list available applications and exit")
		traceN = flag.Int("trace", 0, "dump the last N transaction lifecycle events")

		metricsJSON = flag.String("metrics-json", "", "write the end-of-run metrics snapshot (counters, gauges, histograms) to this file")
		metricsCSV  = flag.String("metrics-csv", "", "write the interval-sampled time series to this CSV file")
		metricsProm = flag.String("metrics-prom", "", "write the metrics snapshot in Prometheus text exposition format to this file")
		chromeTrace = flag.String("chrome-trace", "", "write a Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
		interval    = flag.Uint64("sample-interval", 10000, "time-series sampling interval in simulated cycles")

		conflictReport = flag.String("conflict-report", "", "write the JSON conflict-forensics report (abort attribution, false-positive accounting) to this file")
		foldedStacks   = flag.String("folded-stacks", "", "write cycle-loss profiles as folded stacks (site;line;cause weight — flamegraph.pl / pprof ready) to this file")
		forensicsTopK  = flag.Int("forensics-topk", 0, "hot-site/hot-line table depth in the conflict report (0 = default)")

		faultPlan    = flag.String("faults", "", "inject a built-in fault plan (\"list\" to enumerate), arming the escalation ladder")
		faultFile    = flag.String("faults-file", "", "inject the exact fault plan decoded from this file (overrides -faults)")
		faultSeed    = flag.Uint64("fault-seed", 1, "seed for the fault plan's window placement")
		progressDump = flag.Bool("progress-dump", false, "print the robustness counters (injected faults, retries, escalations) after the run")
		chaos        = flag.Bool("chaos", false, "run the full chaos sweep (schemes x plans x seeds, each replayed) and exit")

		cpuProfile = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a host heap profile taken after the run to this file")

		cacheDir = flag.String("cache-dir", os.Getenv("SUVTM_RUNCACHE"),
			"serve repeated pure runs from a persistent run cache under this directory (default $SUVTM_RUNCACHE)")
		cacheVerify = flag.Bool("cache-verify", false,
			"re-simulate a sample of cache hits and fail on divergence")
	)
	flag.Parse()

	stopProfiles, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "suvsim:", err)
		os.Exit(2)
	}
	defer stopProfiles()

	if *list {
		fmt.Println("applications:", strings.Join(suvtm.Apps(), ", "))
		fmt.Println("STAMP analogues:", strings.Join(suvtm.StampApps(), ", "))
		return
	}
	if *config {
		printConfig(suvtm.DefaultConfig(*cores))
		return
	}
	if *faultPlan == "list" {
		fmt.Println("fault plans:", strings.Join(suvtm.FaultPlanNames(), ", "))
		return
	}
	if *chaos {
		runChaos()
		return
	}

	spec := suvtm.Spec{
		App: *app, Scheme: suvtm.Scheme(*scheme),
		Cores: *cores, Scale: *scale, Seed: *seed,
		TraceEvents: *traceN,
		Metrics:     *metricsJSON != "" || *metricsProm != "",
		ChromeTrace: *chromeTrace != "",
		FaultPlan:   *faultPlan,
		FaultSeed:   *faultSeed,

		Forensics:     *conflictReport != "" || *foldedStacks != "",
		ForensicsTopK: *forensicsTopK,
	}
	if *faultFile != "" {
		f, err := os.Open(*faultFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "suvsim:", err)
			os.Exit(2)
		}
		plan, err := suvtm.DecodeFaultPlan(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "suvsim:", err)
			os.Exit(2)
		}
		spec.Faults = plan
	}
	if *metricsCSV != "" {
		if *interval == 0 {
			fmt.Fprintln(os.Stderr, "suvsim: -metrics-csv needs a positive -sample-interval")
			os.Exit(2)
		}
		spec.SampleInterval = suvtm.Cycles(*interval)
	}
	run := suvtm.Run
	if *cacheDir != "" {
		if err := suvtm.SetRunCacheDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "suvsim:", err)
			os.Exit(2)
		}
		if *cacheVerify {
			suvtm.SetRunCacheVerify(4)
		}
		run = suvtm.RunCached
	}
	out, err := run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "suvsim:", err)
		var wd *suvtm.WatchdogError
		var dl *suvtm.DeadlockError
		switch {
		case errors.As(err, &wd):
			fmt.Fprintln(os.Stderr, "\npost-mortem (watchdog):")
			fmt.Fprintln(os.Stderr, wd.PostMortem())
		case errors.As(err, &dl):
			fmt.Fprintln(os.Stderr, "\npost-mortem (deadlock):")
			fmt.Fprintln(os.Stderr, dl.PostMortem())
		}
		if out != nil {
			writeMetrics(out, *metricsJSON, *metricsCSV, *chromeTrace, *metricsProm, *conflictReport, *foldedStacks)
		}
		stopProfiles()
		os.Exit(1)
	}
	if out.CheckErr != nil {
		fmt.Fprintln(os.Stderr, "suvsim: INVARIANT VIOLATION:", out.CheckErr)
		stopProfiles()
		os.Exit(1)
	}
	c := out.Counters
	fmt.Printf("%s under %s (%d cores, scale %.2f, seed %d)\n", *app, *scheme, *cores, *scale, *seed)
	fmt.Printf("  execution time: %d cycles (%.3f ms at 1.2 GHz)\n", out.Cycles, float64(out.Cycles)/1.2e6)
	fmt.Printf("  breakdown:      %s\n", out.Breakdown.String())
	fmt.Printf("  transactions:   %d committed, %d aborted (%.1f%% abort ratio)\n",
		c.TxCommitted, c.TxAborted, 100*c.AbortRatio())
	fmt.Printf("  conflicts:      %d NACKs, %d cycle aborts, %d remote aborts, %d false positives\n",
		c.NACKsReceived, c.CycleAborts, c.RemoteAborts, c.FalsePositive)
	fmt.Printf("  caches:         L1 %d hits / %d misses, L2 %d hits / %d misses, %d writebacks\n",
		c.L1Hits, c.L1Misses, c.L2Hits, c.L2Misses, c.Writebacks)
	fmt.Printf("  overflows:      %d cache-overflow tx, %d table-overflow tx, %d spec evictions\n",
		c.CacheOverflowTx, c.TableOverflowTx, c.SpecLineEvicted)
	if c.RedirectLookups > 0 {
		fmt.Printf("  redirect:       %d lookups (%.1f%% L1-table hits), %d entries added, %d redirect-backs, %d live entries, %d pool pages\n",
			c.RedirectLookups, 100*(1-c.RedirectL1MissRate()), c.RedirectEntriesAdd, c.RedirectBacks, out.RedirectEn, out.PoolPages)
	}
	if c.UndoLogEntries > 0 {
		fmt.Printf("  undo log:       %d records written, %d replayed, %d software traps\n",
			c.UndoLogEntries, c.UndoLogRestores, c.SoftwareTraps)
	}
	if c.EagerTx+c.LazyTx > 0 {
		fmt.Printf("  selector:       %d eager, %d lazy transactions (%d merge lines)\n",
			c.EagerTx, c.LazyTx, c.LazyCommitMerges)
	}
	if c.IsoWindows > 0 {
		fmt.Printf("  isolation:      %.0f-cycle mean writer window over %d windows\n",
			c.MeanIsolationWindow(), c.IsoWindows)
	}
	fmt.Println("  invariants:     OK (serializability checks passed)")
	if *progressDump || spec.FaultPlan != "" || spec.Faults != nil {
		fmt.Printf("  robustness:     %d injected NACKs, %d mesh timeouts / %d retries / %d duplicates\n",
			c.InjectedNACKs, c.MeshTimeouts, c.MeshRetries, c.MeshDuplicates)
		fmt.Printf("                  %d starvation escalations, %d token grants, %d degraded completions, %d pool-reclaim stalls\n",
			c.StarveEscalations, c.TokenGrants, c.GracefulDegradation, c.PoolReclaimStalls)
	}
	if out.Forensics != nil {
		fmt.Printf("  forensics:      %s\n", out.Forensics)
	}
	if out.Trace != nil {
		fmt.Printf("\nLast %d lifecycle events (of %d recorded):\n%s",
			*traceN, out.Trace.Total(), out.Trace.Dump())
	}
	writeMetrics(out, *metricsJSON, *metricsCSV, *chromeTrace, *metricsProm, *conflictReport, *foldedStacks)
	if *cacheDir != "" {
		fmt.Printf("  %s\n", suvtm.FleetSnapshot())
	}
}

// runChaos executes the full robustness sweep and prints the verdict
// table; a failed acceptance gate exits nonzero.
func runChaos() {
	ch, err := suvtm.RunChaos(suvtm.ChaosOptions{Replay: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "suvsim:", err)
		os.Exit(1)
	}
	fmt.Print(ch.Render())
	if err := ch.Verify(); err != nil {
		fmt.Fprintln(os.Stderr, "suvsim: chaos sweep FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("chaos sweep: all cells completed, serializable, and replayed bit-identically")
}

// writeMetrics exports the run's observability outputs to the requested
// files.
func writeMetrics(out *suvtm.Outcome, jsonPath, csvPath, tracePath, promPath, reportPath, foldedPath string) {
	save := func(path, what string, write func(*os.File) error) {
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "suvsim:", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s: %s\n", what, path)
	}
	if jsonPath != "" && out.Metrics != nil {
		save(jsonPath, "metrics snapshot", func(f *os.File) error { return out.Metrics.WriteJSON(f) })
	}
	if csvPath != "" && out.Series != nil {
		save(csvPath, "interval series", func(f *os.File) error { return out.Series.WriteCSV(f) })
	}
	if tracePath != "" && out.Chrome != nil {
		save(tracePath, "Chrome trace", func(f *os.File) error { return out.Chrome.WriteJSON(f) })
	}
	if promPath != "" && out.Metrics != nil {
		save(promPath, "Prometheus metrics", func(f *os.File) error { return out.Metrics.WriteProm(f) })
	}
	if reportPath != "" && out.Forensics != nil {
		save(reportPath, "conflict report", func(f *os.File) error { return out.Forensics.WriteJSON(f) })
	}
	if foldedPath != "" && out.Forensics != nil {
		save(foldedPath, "folded stacks", func(f *os.File) error { return out.Forensics.WriteFolded(f) })
	}
}

func printConfig(cfg suvtm.MachineConfig) {
	fmt.Println("Simulated CMP (Table III):")
	fmt.Printf("  cores:        %d in-order, single issue, 1.2 GHz\n", cfg.Cores)
	fmt.Printf("  L1 cache:     %d KB %d-way, 64-byte lines, write-back, %d-cycle\n", cfg.L1.SizeBytes>>10, cfg.L1.Ways, cfg.L1Latency)
	fmt.Printf("  L2 cache:     %d MB %d-way, write-back, %d-cycle\n", cfg.L2.SizeBytes>>20, cfg.L2.Ways, cfg.L2Latency)
	fmt.Printf("  memory:       %d-cycle latency\n", cfg.MemLatency)
	fmt.Printf("  directory:    bit vector of sharers, %d-cycle\n", cfg.DirLatency)
	fmt.Printf("  interconnect: mesh, %d-cycle wire, %d-cycle route\n", cfg.WireLatency, cfg.RouteLatency)
	fmt.Printf("  signatures:   %d-bit Bloom filters\n", cfg.SigBits)
	fmt.Printf("  1st-level redirect table: %d-entry zero-latency fully associative\n", cfg.Redirect.L1Entries)
	fmt.Printf("  2nd-level redirect table: %d-cycle %d-entry %d-way shared\n", cfg.Redirect.L2Latency, cfg.Redirect.L2Entries, cfg.Redirect.L2Ways)
}
