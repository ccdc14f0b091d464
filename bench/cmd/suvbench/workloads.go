package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"

	"suvtm/internal/experiments"
	"suvtm/internal/forensics"
	"suvtm/internal/htm"
	wl "suvtm/internal/workload"
)

// workload is one set of inputs the benchmark runs: a closed loop from
// one process in which op i starts when op i-1 has finished.
type workload struct {
	name string
	why  string
	// pinOps is how many leading ops fold into the workload digest, and
	// the fewest ops a run makes however short --seconds is.
	pinOps int
	// op returns the specs of op i, and setup those of set-up
	// repetition rep; both derive every spec seed from the run's seed.
	op    func(seed uint64, scale float64, i int) []experiments.Spec
	setup func(seed uint64, scale float64, rep int) []experiments.Spec
	batch bool // an op is one RunManyWith batch, else experiments.Run per spec
	cache bool // batches go through the run cache
}

// singleApps are the single-run workloads' apps, one per op in turn.
var singleApps = []string{"intruder", "kmeans", "genome", "vacation", "ssca2"}

// opSeed is the spec seed of op k under the run's seed: each seed owns
// a disjoint range, and no spec seed is 0, which experiments reads as 1.
func opSeed(seed uint64, k int) uint64 { return seed*1_000_000 + uint64(k) + 1 }

// warmSeed is the spec seed of set-up repetition rep, outside every op's.
func warmSeed(seed uint64, rep int) uint64 { return opSeed(seed, 900_000+rep) }

// gridSpecs is the paper's campaign: every STAMP app under every scheme
// at 16 cores.
func gridSpecs(seed uint64, scale float64) []experiments.Spec {
	var specs []experiments.Spec
	for _, app := range wl.StampApps {
		for _, s := range schemeKeys {
			specs = append(specs, experiments.Spec{App: app, Scheme: s.scheme, Cores: 16, Seed: seed, Scale: scale})
		}
	}
	return specs
}

// sweepSpecs is the Figure 7 sweep on yada: SUV-TM with every
// first-level redirect-table size.
func sweepSpecs(seed uint64, scale float64) []experiments.Spec {
	var specs []experiments.Spec
	for _, n := range experiments.Fig7Sizes {
		specs = append(specs, experiments.Spec{App: "yada", Scheme: experiments.SUVTM, Cores: 16, Seed: seed, Scale: scale,
			Tweak: func(c *htm.Config) { c.Redirect.L1Entries = n }})
	}
	return specs
}

// singleSpec is one suvsim-style SUV-TM run, with every observer on
// when observe is set.
func singleSpec(app string, seed uint64, scale float64, observe bool) experiments.Spec {
	s := experiments.Spec{App: app, Scheme: experiments.SUVTM, Cores: 16, Seed: seed, Scale: scale}
	if observe {
		s.Metrics, s.SampleInterval, s.TraceEvents, s.ChromeTrace, s.Forensics = true, 10_000, 256, true, true
	}
	return s
}

func singleWorkload(name, why string, observe bool) *workload {
	return &workload{
		name: name, why: why, pinOps: 10,
		op: func(seed uint64, scale float64, i int) []experiments.Spec {
			return []experiments.Spec{singleSpec(singleApps[i%len(singleApps)], opSeed(seed, i/len(singleApps)), scale, observe)}
		},
		setup: func(seed uint64, scale float64, rep int) []experiments.Spec {
			var specs []experiments.Spec
			for _, app := range singleApps {
				specs = append(specs, singleSpec(app, warmSeed(seed, rep), scale, observe))
			}
			return specs
		},
	}
}

// workloads is the benchmark, in the order a full pass runs it. The
// why of each is copied into BENCHMARK.json.
var workloads = []*workload{
	{
		name:   "grid-cold",
		why:    "the paper's 8-app x 5-scheme campaign, cache bypassed: the simulation data plane does the work for all five schemes, with fleet arenas and the workload memo",
		pinOps: 1, batch: true,
		op: func(seed uint64, scale float64, i int) []experiments.Spec { return gridSpecs(opSeed(seed, i), scale) },
		setup: func(seed uint64, scale float64, rep int) []experiments.Spec {
			return gridSpecs(warmSeed(seed, rep), scale)
		},
	},
	{
		name:   "grid-warm",
		why:    "the same campaign served from a primed run cache: fingerprinting, cache hits and batch dispatch do all the work and the data plane none",
		pinOps: 1, batch: true, cache: true,
		op:    func(seed uint64, scale float64, _ int) []experiments.Spec { return gridSpecs(opSeed(seed, 0), scale) },
		setup: func(seed uint64, scale float64, _ int) []experiments.Spec { return gridSpecs(opSeed(seed, 0), scale) },
	},
	singleWorkload("single-cold",
		"one cold SUV-TM run per op, as suvsim makes it: generation, machine construction and the serializability check are paid on every op",
		false),
	singleWorkload("observed",
		"the single-cold runs with metrics, sampling, event trace, Chrome trace and forensics on and every export written: the observers do most of the work",
		true),
	{
		name:   "redirect-sweep",
		why:    "the Figure 7 sweep of the L1 redirect table on yada under SUV-TM: redirect tables and summary signature do the most work",
		pinOps: 1, batch: true,
		op: func(seed uint64, scale float64, i int) []experiments.Spec { return sweepSpecs(opSeed(seed, i), scale) },
		setup: func(seed uint64, scale float64, rep int) []experiments.Spec {
			return sweepSpecs(warmSeed(seed, rep), scale)
		},
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jobs is the batch worker count: one per host CPU.
func jobs() int { return runtime.NumCPU() }

func (w *workload) options() experiments.BatchOptions {
	return experiments.BatchOptions{Jobs: jobs(), NoCache: !w.cache}
}

// execute runs specs as the workload's users do: one RunManyWith batch,
// or experiments.Run per spec followed by every export of an observed run.
func (w *workload) execute(specs []experiments.Spec) ([]*experiments.Outcome, error) {
	if w.batch {
		return experiments.RunManyWith(specs, w.options())
	}
	outs := make([]*experiments.Outcome, len(specs))
	for i, s := range specs {
		out, err := experiments.Run(s)
		outs[i] = out
		if err != nil {
			return outs, err
		}
		if observes(s) {
			if _, err := exportAll(out, io.Discard); err != nil {
				return outs, err
			}
		}
	}
	return outs, nil
}

// check verifies an op's outcomes: every run finished and passed its
// workload's serializability check, every export of an observed run
// parses, and, when want is given, each run has the digest at its index.
func check(outs []*experiments.Outcome, want [][32]byte) error {
	for k, out := range outs {
		if out == nil || out.Result == nil {
			return errors.New("run produced no result")
		}
		if out.CheckErr != nil {
			return fmt.Errorf("%s under %s: %w", out.Spec.App, out.Spec.Scheme, out.CheckErr)
		}
		if observes(out.Spec) {
			if err := checkExports(out); err != nil {
				return fmt.Errorf("%s under %s: %w", out.Spec.App, out.Spec.Scheme, err)
			}
		}
		if want != nil && (k >= len(want) || specDigest(out) != want[k]) {
			return fmt.Errorf("%s under %s: digest differs from the priming run", out.Spec.App, out.Spec.Scheme)
		}
	}
	return nil
}

func digests(outs []*experiments.Outcome) [][32]byte {
	d := make([][32]byte, len(outs))
	for i, out := range outs {
		d[i] = specDigest(out)
	}
	return d
}

func observes(s experiments.Spec) bool {
	return s.Metrics || s.SampleInterval > 0 || s.ChromeTrace || s.TraceEvents > 0 || s.Forensics
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// export is one file an observed run writes, with the parser that checks it.
type export struct {
	name  string
	write func(io.Writer) error
	parse func([]byte) error
}

func exportsOf(out *experiments.Outcome) []export {
	var ex []export
	if out.Metrics != nil {
		ex = append(ex, export{"metrics snapshot", out.Metrics.WriteJSON, parseJSON})
	}
	if out.Series != nil {
		ex = append(ex, export{"metrics series", out.Series.WriteCSV, parseCSV})
	}
	if out.Chrome != nil {
		ex = append(ex, export{"chrome trace", out.Chrome.WriteJSON, parseJSON})
	}
	if out.Forensics != nil {
		ex = append(ex,
			export{"conflict report", out.Forensics.WriteJSON, parseJSON},
			export{"folded stacks", out.Forensics.WriteFolded, parseFolded})
	}
	return ex
}

// exportAll writes every export of out to w and returns the bytes written.
func exportAll(out *experiments.Outcome, w io.Writer) (int64, error) {
	c := &countingWriter{w: w}
	for _, e := range exportsOf(out) {
		if err := e.write(c); err != nil {
			return c.n, fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return c.n, nil
}

// checkExports writes every export of out again, into memory, and parses it.
func checkExports(out *experiments.Outcome) error {
	var buf bytes.Buffer
	for _, e := range exportsOf(out) {
		buf.Reset()
		if err := e.write(&buf); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if err := e.parse(buf.Bytes()); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

func parseJSON(b []byte) error {
	if !json.Valid(b) {
		return errors.New("not valid JSON")
	}
	return nil
}

func parseCSV(b []byte) error {
	_, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	return err
}

func parseFolded(b []byte) error {
	_, err := forensics.ParseFolded(bytes.NewReader(b))
	return err
}
