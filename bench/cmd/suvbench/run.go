package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"suvtm/internal/experiments"
)

// runConfig is one workload run's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // measuring time after set-up; a run still makes the workload's pinned ops
	trace    bool
	scale    float64
	maxOps   int    // stop after this many ops (0 = no limit)
	spans    string // where a traced run writes its spans ("" = nowhere)
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// maxErrors bounds the failure messages a result keeps.
const maxErrors = 5

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocated returns the bytes the process has allocated on the heap.
func allocated() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSS returns the process's peak resident set size in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// runWorkload sets the workload up, then runs its ops in a closed loop
// for cfg.seconds, checking every op's outputs, and derives the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
func runWorkload(cfg runConfig) (*workloadResult, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Name: w.name, Trace: cfg.trace, Metrics: map[string]metricValue{}}
	fail := func(i int, err error) {
		res.Failed++
		if len(res.Errors) < maxErrors {
			res.Errors = append(res.Errors, fmt.Sprintf("op %d: %v", i, err))
		}
	}

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setupS []float64
	var priming [][32]byte // what every grid-warm op must serve
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if err := experiments.ResetRunCache(); err != nil {
			return nil, err
		}
		outs, err := w.execute(w.setup(cfg.seed, cfg.scale, rep))
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil {
			err = check(outs, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if w.cache {
			priming = digests(outs)
		}
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	minOps := w.pinOps
	if cfg.maxOps > 0 {
		minOps = min(minOps, cfg.maxOps)
	}
	fold := newFolder()
	pinnedOK := 0
	var opMs []float64
	var opNs int64
	var cycles, allocBytes uint64
	// An op starts only if it should end within cfg.seconds, judging by
	// the previous one, so multi-second ops do not overrun the budget.
	start := time.Now()
	var prev, last time.Duration // start of the previous op, and its length
	for i := 0; cfg.maxOps == 0 || i < cfg.maxOps; i++ {
		now := time.Since(start)
		last, prev = now-prev, now
		if i >= minOps && (now+last).Seconds() > cfg.seconds {
			break
		}
		specs := w.op(cfg.seed, cfg.scale, i)
		var outs []*experiments.Outcome
		var err error
		if tr != nil {
			outs, err = tr.op(w, specs, i)
		} else {
			a0 := allocated()
			t0 := time.Now()
			outs, err = w.execute(specs)
			d := time.Since(t0)
			allocBytes += allocated() - a0
			opNs += int64(d)
			opMs = append(opMs, float64(d)/1e6)
		}
		res.Attempted++
		if err == nil {
			err = check(outs, priming)
		}
		if err != nil {
			fail(i, err)
			continue
		}
		for _, out := range outs {
			cycles += uint64(out.Cycles)
		}
		if i < w.pinOps {
			for _, out := range outs {
				fold.add(specDigest(out))
			}
			pinnedOK++
		}
	}

	if pinnedOK == w.pinOps {
		res.Digest = fold.sum()
	}
	pin, err := pinned(w.name, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	switch {
	case pin == "" || (res.Attempted < w.pinOps && res.Failed == 0):
		res.Pin = "none"
	case pin == res.Digest:
		res.Pin = "match"
	default:
		res.Pin = "mismatch"
		res.Errors = append(res.Errors, fmt.Sprintf("workload digest %s, pinned %s", orDash(res.Digest), pin))
		res.Failed = max(res.Failed, min(w.pinOps, res.Attempted))
	}

	if tr != nil {
		res.Metrics = tr.layers.metrics()
		if cfg.spans != "" {
			if err := tr.spans.write(cfg.spans, w.name, cfg.seed); err != nil {
				return nil, fmt.Errorf("spans: %w", err)
			}
		}
		return res, nil
	}
	n := len(opMs)
	res.Metrics["setup_s"] = metricValue{median(setupS), "s", len(setupS)}
	res.Metrics["op_ms.p50"] = metricValue{median(opMs), "ms", n}
	if p95, err := percentile(opMs, 95); err == nil {
		res.Metrics["op_ms.p95"] = metricValue{p95, "ms", n}
	}
	res.Metrics["sim_mcycles_per_s"] = metricValue{ratio(float64(cycles)/1e6, float64(opNs)/1e9), "Mcycles/s", n}
	res.Metrics["alloc_mb_per_op"] = metricValue{ratio(float64(allocBytes)/(1<<20), float64(n)), "MiB", n}
	res.Metrics["rss_peak_mb"] = metricValue{peakRSS(), "MiB", 1}
	res.Metrics["failed_frac"] = metricValue{ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted}
	return res, nil
}

// runAll runs every workload, one after another, each in a fresh child
// process of this executable, and gathers their records into one.
func runAll(cfg runConfig, spansDir, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "suvbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "suvbench")
	if err != nil {
		fmt.Fprintln(stderr, "suvbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rec := record{Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Host: hostStamp()}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	code := 0
	for _, w := range workloads {
		path := filepath.Join(dir, w.name+".json")
		var buf bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name,
			"-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", trace,
			"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
			"-ops", strconv.Itoa(cfg.maxOps),
			"-spans", spansDir,
			"-o", path)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "suvbench: %s: %v\n", w.name, err)
			code = 1
		}
		copyButLastLine(stdout, buf.Bytes())
		r, err := readRecord(path)
		if err != nil {
			fmt.Fprintf(stderr, "suvbench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		rec.Workloads = append(rec.Workloads, r.Workloads...)
	}
	failed := 0
	for _, r := range rec.Workloads {
		failed += r.Failed
	}
	fmt.Fprintf(stdout, "suvbench: %d of %d workloads ran, %d failed ops\n", len(rec.Workloads), len(workloads), failed)
	if out != "" {
		if err := writeRecord(out, &rec); err != nil {
			fmt.Fprintln(stderr, "suvbench:", err)
			return 1
		}
	}
	return code
}

// copyButLastLine copies a child's output without its final JSON line.
func copyButLastLine(w io.Writer, out []byte) {
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	for i := 0; i+1 < len(lines); i++ {
		fmt.Fprintf(w, "%s\n", lines[i])
	}
}
