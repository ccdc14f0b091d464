// Command sweep runs the paper's redirect-table sensitivity studies:
// Figure 7 (first-level table size: miss rate and execution time) and
// Figure 8 (second-level table size and latency).
//
// Usage:
//
//	sweep -fig7 [-scale 1.0] [-apps bayes,labyrinth,yada]
//	sweep -fig8size | -fig8lat | -all
//	sweep -series intruder -csv out   # per-interval time series per scheme
//	sweep -forensics intruder -folded out   # conflict forensics across schemes
//	sweep -all -progress              # stream fleet progress to stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"suvtm/internal/experiments"
	"suvtm/internal/hostprof"
)

func main() {
	var (
		csvDir    = flag.String("csv", "", "also write <dir>/<sweep>.csv for plotting")
		fig7      = flag.Bool("fig7", false, "sweep the first-level redirect-table size (Figure 7)")
		fig8size  = flag.Bool("fig8size", false, "sweep the second-level table size (Figure 8a)")
		fig8lat   = flag.Bool("fig8lat", false, "sweep the second-level table latency (Figure 8b)")
		scaling   = flag.String("scaling", "", "core-count scaling study for one app (e.g. -scaling yada)")
		all       = flag.Bool("all", false, "run every sweep")
		cores     = flag.Int("cores", 16, "simulated cores")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		apps      = flag.String("apps", "", "comma-separated app subset (default: all eight)")
		series    = flag.String("series", "", "per-interval time series for one app under the Figure 6 schemes (requires -csv)")
		interval  = flag.Uint64("sample-interval", 10000, "sampling interval for -series, in simulated cycles")
		forensic  = flag.String("forensics", "", "conflict-forensics comparison for one app across every scheme (true conflicts vs signature false positives, hottest lines/sites)")
		topK      = flag.Int("forensics-topk", 0, "hot-site/hot-line table depth for -forensics (0 = default)")
		foldedDir = flag.String("folded", "", "with -forensics, also write <dir>/forensics_<app>_<scheme>.folded cycle-loss profiles")
		progress  = flag.Bool("progress", false, "stream deterministic fleet-progress snapshots to stderr while batches run")
		jobs      = flag.Int("jobs", 0, "concurrent simulations (0 = one per host CPU)")
		cacheDir  = flag.String("cache-dir", os.Getenv("SUVTM_RUNCACHE"),
			"persist the run cache under this directory (default $SUVTM_RUNCACHE; empty = in-memory only)")
		cacheVerify = flag.Bool("cache-verify", false,
			"re-simulate a sample of cache hits and fail on divergence")

		cpuProfile = flag.String("cpuprofile", "", "write a host CPU profile of the sweep to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a host heap profile taken after the sweep to this file")
	)
	flag.Parse()

	stopProfiles, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	defer stopProfiles()

	opts := experiments.Options{Cores: *cores, Seed: *seed, Scale: *scale, Jobs: *jobs}
	if *apps != "" {
		opts.Apps = strings.Split(*apps, ",")
	}
	if *progress {
		opts.OnProgress = func(p experiments.FleetProgress) {
			fmt.Fprintln(os.Stderr, "sweep:", p.String())
		}
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		stopProfiles()
		os.Exit(1)
	}
	if *cacheDir != "" {
		if err := experiments.SetRunCacheDir(*cacheDir); err != nil {
			fail(err)
		}
	}
	if *cacheVerify {
		experiments.SetRunCacheVerify(4)
	}
	ran := false
	if *fig7 || *all {
		ran = true
		sw, err := experiments.RunFig7(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(sw.Render())
		saveCSV(*csvDir, "fig7.csv", sw, fail)
	}
	if *fig8size || *all {
		ran = true
		sw, err := experiments.RunFig8Size(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(sw.Render())
		saveCSV(*csvDir, "fig8a.csv", sw, fail)
	}
	if *scaling != "" {
		ran = true
		sc, err := experiments.RunScaling(*scaling,
			[]experiments.Scheme{experiments.LogTMSE, experiments.SUVTM},
			nil, *seed, opts.Scale)
		if err != nil {
			fail(err)
		}
		fmt.Println(sc.Render())
	}
	if *fig8lat || *all {
		ran = true
		sw, err := experiments.RunFig8Latency(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(sw.Render())
		saveCSV(*csvDir, "fig8b.csv", sw, fail)
	}
	if *series != "" {
		ran = true
		if *csvDir == "" {
			fail(fmt.Errorf("-series needs -csv <dir> to write the per-scheme CSVs"))
		}
		runSeries(*series, opts, *interval, *csvDir, fail)
	}
	if *forensic != "" {
		ran = true
		runForensics(*forensic, opts, *topK, *foldedDir, fail)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Println(experiments.FleetSnapshot())
}

// runSeries samples one app under each Figure 6 scheme and writes
// series_<app>_<scheme>.csv per scheme: one row per sampling interval
// with commit/abort/NACK rates, cache activity and redirect occupancy.
func runSeries(app string, opts experiments.Options, interval uint64, dir string, fail func(error)) {
	specs := make([]experiments.Spec, len(experiments.Fig6Schemes))
	for i, s := range experiments.Fig6Schemes {
		specs[i] = experiments.Spec{
			App: app, Scheme: s,
			Cores: opts.Cores, Seed: opts.Seed, Scale: opts.Scale,
			SampleInterval: interval,
		}
	}
	outs, err := experiments.RunMany(specs)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	for _, out := range outs {
		name := fmt.Sprintf("series_%s_%s.csv", app,
			strings.ReplaceAll(string(out.Spec.Scheme), "+", "-"))
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		err = out.Series.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d intervals, %d cycles total)\n", path, len(out.Series.Rows), out.Cycles)
	}
}

// runForensics compares one app's conflict forensics across every
// scheme and optionally writes per-scheme folded cycle-loss profiles
// (feed them to flamegraph.pl or `pprof -raw`-style tooling).
func runForensics(app string, opts experiments.Options, topK int, foldedDir string, fail func(error)) {
	cmp, err := experiments.RunForensics(app, nil, experiments.ForensicsOptions{
		Cores: opts.Cores, Seed: opts.Seed, Scale: opts.Scale, TopK: topK,
		Batch: experiments.BatchOptions{Jobs: opts.Jobs, OnProgress: opts.OnProgress},
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(cmp.Render())
	if foldedDir == "" {
		return
	}
	if err := os.MkdirAll(foldedDir, 0o755); err != nil {
		fail(err)
	}
	for _, s := range cmp.Schemes {
		rep := cmp.Reports[s]
		if rep == nil {
			continue
		}
		name := fmt.Sprintf("forensics_%s_%s.folded", app,
			strings.ReplaceAll(string(s), "+", "-"))
		path := filepath.Join(foldedDir, name)
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		err = rep.WriteFolded(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d folds)\n", path, len(rep.Folds))
	}
}

// saveCSV writes a sweep to dir/name when dir is non-empty.
func saveCSV(dir, name string, sw *experiments.Sweep, fail func(error)) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := sw.WriteCSV(f); err != nil {
		fail(err)
	}
	fmt.Println("wrote", filepath.Join(dir, name))
}
