package experiments

import (
	"bytes"
	"strings"
	"testing"

	"suvtm/internal/htm"
)

// TestRunSeeds checks that the spec seed drives the interleaving: the
// same spec under three seeds must not simulate the same cycle count
// three times.
func TestRunSeeds(t *testing.T) {
	var specs []Spec
	for seed := uint64(1); seed <= 3; seed++ {
		specs = append(specs, Spec{App: "counter", Scheme: SUVTM, Cores: 4, Seed: seed, Scale: 0.2})
	}
	outs, err := RunMany(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.CheckErr != nil {
			t.Fatalf("seed %d: %v", specs[i].Seed, out.CheckErr)
		}
		if out.Cycles == 0 {
			t.Fatalf("seed %d simulated zero cycles", specs[i].Seed)
		}
	}
	if outs[0].Cycles == outs[1].Cycles && outs[1].Cycles == outs[2].Cycles {
		t.Fatal("seeds had no effect")
	}
}

// TestSeedStudyStable: the SUV-vs-LogTM win must hold across seeds, not
// just at seed 1.
func TestSeedStudyStable(t *testing.T) {
	study, err := RunSeedStudy(Options{Scale: 0.15, Apps: []string{"intruder", "yada"}},
		LogTMSE, SUVTM, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	mean, sd := study.MeanSpeedup()
	if mean <= 0 {
		t.Fatalf("SUV-TM does not beat LogTM-SE across seeds: mean %.1f%% (sd %.1f%%)", 100*mean, 100*sd)
	}
	out := study.Render()
	if !strings.Contains(out, "mean speedup") {
		t.Fatalf("render missing summary:\n%s", out)
	}
}

// TestMatrixCSV checks the tidy export round-trips structurally.
func TestMatrixCSV(t *testing.T) {
	mtx, err := RunMatrix(Options{Scale: 0.1, Apps: []string{"counter", "bank"}, Cores: 4},
		[]Scheme{LogTMSE, SUVTM})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mtx.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+2*2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "app,scheme,cycles,norm_time") {
		t.Fatalf("header = %s", lines[0])
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != strings.Count(lines[0], ",") {
			t.Fatalf("ragged row: %s", l)
		}
	}
}

// TestSweepCSV checks the sweep export.
func TestSweepCSV(t *testing.T) {
	sw, err := runSweep(Options{Scale: 0.05, Apps: []string{"counter"}, Cores: 4},
		"test", []int{64, 128}, func(cfg *htm.Config, entries int) { cfg.Redirect.L1Entries = entries })
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("csv lines = %d:\n%s", got, buf.String())
	}
}
