package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"suvtm/internal/htm"
	"suvtm/internal/mem"
	"suvtm/internal/sim"
	"suvtm/internal/workload"
)

// goldenOutcomesPath holds one line per pinned run: app, scheme, cores,
// cycles and the SHA-256 of everything the run computed.
var goldenOutcomesPath = filepath.Join("testdata", "golden", "outcomes.txt")

// goldenRuns is the pinned grid: the paper's Figure 6 and Figure 9
// schemes over the eight STAMP apps at 16 cores, plus the two synthetic
// apps whose fixed layouts (stripe-interleaved pool pages, hashed record
// placement) decide simulated addresses, under the three Figure 6
// schemes at 8 cores. All at seed 1, scale 0.2.
func goldenRuns() []Spec {
	var specs []Spec
	for _, app := range workload.StampApps {
		for _, s := range AllSchemes {
			specs = append(specs, Spec{App: app, Scheme: s, Cores: 16, Seed: 1, Scale: 0.2})
		}
	}
	for _, app := range []string{"sessionstore", "intruderscan"} {
		for _, s := range Fig6Schemes {
			specs = append(specs, Spec{App: app, Scheme: s, Cores: 8, Seed: 1, Scale: 0.2})
		}
	}
	return specs
}

// goldenLine runs spec on a machine built the way runSpec builds a
// cold, pure run (Table III config, the spec's seed, no tweak) and
// digests its whole result: cycles, the breakdown, every per-core
// breakdown, the counters, the redirect pool's page count, the live
// redirect entries, and the final physical memory image in ascending
// address order.
func goldenLine(spec Spec) (string, error) {
	cores, seed, scale := spec.resolved()
	gen, err := workload.Get(spec.App)
	if err != nil {
		return "", err
	}
	vm, err := NewVM(spec.Scheme)
	if err != nil {
		return "", err
	}
	memory := mem.NewMemory()
	alloc := mem.NewAllocator(heapBase, heapSize)
	app := gen(workload.GenConfig{Cores: cores, Seed: seed, Scale: scale}, alloc, memory)
	cfg := htm.DefaultConfig(cores)
	cfg.Seed = seed
	m := htm.New(cfg, vm, app.Programs, memory, alloc)
	res, err := m.Run()
	if err != nil {
		return "", err
	}
	if app.Check != nil {
		if err := app.Check(m.ArchMem()); err != nil {
			return "", err
		}
	}
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put(uint64(res.Cycles))
	put(res.Breakdown)
	put(uint64(len(res.PerCore)))
	for i := range res.PerCore {
		put(res.PerCore[i])
	}
	put(res.Counters)
	put(m.Redirect.Pool().Pages())
	put(uint64(m.Redirect.EntryCount()))
	m.Memory.ForEachWritten(func(addr sim.Addr, val sim.Word) {
		put(uint64(addr))
		put(uint64(val))
	})
	return fmt.Sprintf("%-12s %-9s %2d %10d %x", spec.App, spec.Scheme, cores, res.Cycles, h.Sum(nil)), nil
}

// TestGoldenOutcomes pins what the simulator computes on the paper's
// grid, run by run. A refactor of the engine, the memory hierarchy or a
// scheme must leave every line unchanged; a deliberate model change
// replaces the file with the table this test prints on mismatch and
// says why in CHANGES.md.
func TestGoldenOutcomes(t *testing.T) {
	var b strings.Builder
	for _, spec := range goldenRuns() {
		line, err := goldenLine(spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", spec.App, spec.Scheme, err)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	got := b.String()
	want, err := os.ReadFile(goldenOutcomesPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Errorf("first differing line %d:\n got: %s", i+1, gotLines[i])
			break
		}
	}
	t.Fatalf("simulated outcomes differ from %s; if the change is a deliberate model change, replace the file with:\n%s",
		goldenOutcomesPath, got)
}
