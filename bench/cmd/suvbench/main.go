// Command suvbench measures the simulator's host speed end to end and
// layer by layer on five workloads, checks every output, and compares
// results. See bench/README.md.
//
//	suvbench -workload grid-cold -seed 1 -seconds 15 -trace 0
//	suvbench -seed 1 -o result.json      (every workload, each in a child process)
//	suvbench compare base/*.json -- change/*.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("suvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "run this workload in this process (default: every workload, each in a child process)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every spec seed derives from")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measuring time per workload, after set-up")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass: per-layer metrics and a spans file instead of the end-to-end metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "workload scale (digests are pinned at 1)")
	fs.IntVar(&cfg.maxOps, "ops", 0, "stop each workload after this many ops (0 = no limit)")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced pass writes its spans files to")
	out := fs.String("o", "", "also write the full record (host stamp, digests, sample counts) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || cfg.scale <= 0 || cfg.maxOps < 0 {
		fmt.Fprintln(stderr, "suvbench: bad arguments; see -h")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workload == "" {
		return runAll(cfg, *spansDir, *out, stdout, stderr)
	}
	if cfg.trace && *spansDir != "" {
		cfg.spans = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}

	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "suvbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rec := record{Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Host: hostStamp(), Workloads: []workloadResult{*res}}
	printResult(stdout, &rec, res)
	if *out != "" {
		if err := writeRecord(*out, &rec); err != nil {
			fmt.Fprintln(stderr, "suvbench:", err)
			return 1
		}
	}
	line, err := resultLine(res)
	if err != nil {
		fmt.Fprintln(stderr, "suvbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}
