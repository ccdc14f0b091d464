// Host-throughput benchmark. Unlike bench_test.go (which reports
// simulated-cycle metrics, the paper's numbers), this measures how fast
// the simulator itself runs on the host — simulated megacycles per
// wall-clock second. The repository's host-speed gate is suvbench
// (bench/); this is the quick single-run probe:
//
//	go test -bench BenchmarkMachineSteadyState -benchtime 1x .
package suvtm_test

import (
	"testing"

	"suvtm"
)

// steadyStateSpec is the fixed configuration the benchmark simulates: a
// full 16-core machine under the paper's own scheme, busy enough that
// the run spends its time in the data plane (loads, stores, directory,
// redirect), not in setup.
var steadyStateSpec = suvtm.Spec{App: "vacation", Scheme: suvtm.SUVTM, Scale: 0.4}

// BenchmarkMachineSteadyState runs one whole simulation per iteration
// and reports host throughput as simulated Mcycles per wall-second —
// the "how fast is this simulator" number the perf trajectory tracks.
func BenchmarkMachineSteadyState(b *testing.B) {
	b.ReportAllocs()
	var simCycles float64
	for i := 0; i < b.N; i++ {
		out, err := suvtm.Run(steadyStateSpec)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += float64(out.Cycles)
	}
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(simCycles/1e6/secs, "Mcycles/s")
	}
}
