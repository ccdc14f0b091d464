// Host-throughput benchmarks and the BENCH_hotpath.json regression
// harness. Unlike bench_test.go (which reports simulated-cycle metrics,
// the paper's numbers), these measure how fast the simulator itself runs
// on the host — simulated megacycles per wall-clock second — so hot-path
// regressions show up as a drop in Mcycles/s or a jump in allocs/op.
//
// Regenerate the checked-in baseline with:
//
//	BENCH_HOTPATH=BENCH_hotpath.json go test -run TestWriteBench -v .
package suvtm_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"suvtm"
	"suvtm/internal/coherence"
	"suvtm/internal/mem"
	"suvtm/internal/sim"
)

// steadyStateSpec is the fixed configuration the hot-path benchmarks
// simulate: a full 16-core machine under the paper's own scheme, busy
// enough that the run spends its time in the data plane (loads, stores,
// directory, redirect), not in setup.
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

// benchMemoryLine, benchDirectoryRoundtrip and benchLineSet mirror the
// package-local micro-benchmarks (internal/mem, internal/coherence,
// internal/sim) so TestWriteBench can record all four hot structures in
// one JSON baseline without exporting test helpers.
func benchMemoryLine(b *testing.B) {
	m := mem.NewMemory()
	const lines = 1 << 12
	var vals [sim.WordsPerLine]sim.Word
	for i := range vals {
		vals[i] = sim.Word(i)
	}
	for line := sim.Line(0); line < lines; line++ {
		m.WriteLine(line, vals)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink sim.Word
	for i := 0; i < b.N; i++ {
		line := sim.Line(i) & (lines - 1)
		addr := sim.AddrOf(line)
		m.Write(addr, sim.Word(i))
		sink += m.Read(addr)
		m.WriteLine(line, vals)
		got := m.ReadLine(line)
		sink += got[0]
	}
	_ = sink
}

func benchDirectoryRoundtrip(b *testing.B) {
	d := coherence.NewDirectory(16)
	const lines = 1 << 12
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		line := sim.Line(i) & (lines - 1)
		d.AddSharer(line, i&15)
		d.AddSharer(line, (i+1)&15)
		d.SetOwner(line, (i+2)&15)
		sink += d.Owner(line)
		d.Drop(line, (i+2)&15)
	}
	_ = sink
}

func benchLineSet(b *testing.B) {
	s := sim.NewLineSet()
	for i := sim.Line(0); i < 64; i++ {
		s.Add(i * 13)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Clear()
		for j := sim.Line(0); j < 64; j++ {
			s.Add(j * 13)
		}
		for j := sim.Line(0); j < 64; j++ {
			if !s.Has(j * 13) {
				b.Fatal("lost a line")
			}
		}
	}
}

// benchRecord is one benchmark's entry in BENCH_hotpath.json.
type benchRecord struct {
	Name      string  `json:"name"`
	NsPerOp   float64 `json:"ns_per_op"`
	AllocsOp  float64 `json:"allocs_per_op"`
	BytesOp   float64 `json:"bytes_per_op"`
	McyclesPS float64 `json:"mcycles_per_sec,omitempty"`
}

// benchDump is the schema of BENCH_hotpath.json.
type benchDump struct {
	Written   string        `json:"written"`
	GoVersion string        `json:"go_version"`
	Results   []benchRecord `json:"results"`
}

// TestWriteBench regenerates BENCH_hotpath.json. It is opt-in (set
// BENCH_HOTPATH to the output path) so a plain `go test ./...` stays
// fast and side-effect free.
func TestWriteBench(t *testing.T) {
	path := os.Getenv("BENCH_HOTPATH")
	if path == "" {
		t.Skip("set BENCH_HOTPATH=<output path> to write the hot-path benchmark baseline")
	}
	dump := benchDump{
		Written:   time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}
	record := func(name string, fn func(b *testing.B)) {
		runtime.GC() // keep earlier benchmarks' garbage out of this one's timing
		res := testing.Benchmark(fn)
		rec := benchRecord{
			Name:     name,
			NsPerOp:  float64(res.NsPerOp()),
			AllocsOp: float64(res.AllocsPerOp()),
			BytesOp:  float64(res.AllocedBytesPerOp()),
		}
		if v, ok := res.Extra["Mcycles/s"]; ok {
			rec.McyclesPS = v
		}
		dump.Results = append(dump.Results, rec)
		t.Logf("%s: %.0f ns/op, %.0f allocs/op, %.0f B/op, %.1f Mcycles/s",
			name, rec.NsPerOp, rec.AllocsOp, rec.BytesOp, rec.McyclesPS)
	}
	record("BenchmarkMemoryLine", benchMemoryLine)
	record("BenchmarkDirectoryRoundtrip", benchDirectoryRoundtrip)
	record("BenchmarkLineSet", benchLineSet)
	record("BenchmarkMachineSteadyState", BenchmarkMachineSteadyState)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&dump); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(dump.Results))
}
