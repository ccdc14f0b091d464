package experiments

import (
	"strings"
	"testing"
)

// TestScalingShape: under a contended workload, SUV-TM's weak-scaling
// efficiency must dominate LogTM-SE's once contention kicks in, and
// both must be ~1.0 at one core.
func TestScalingShape(t *testing.T) {
	sc, err := RunScaling("intruder", []Scheme{LogTMSE, SUVTM}, []int{1, 4, 16}, Options{Seed: 1, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	logtm := sc.Efficiency(LogTMSE)
	suv := sc.Efficiency(SUVTM)
	if logtm[0] != 1.0 || suv[0] != 1.0 {
		t.Fatalf("1-core efficiency not 1.0: %v %v", logtm[0], suv[0])
	}
	if suv[2] <= logtm[2] {
		t.Fatalf("SUV-TM did not scale better at 16 cores: %.3f vs %.3f", suv[2], logtm[2])
	}
	out := sc.Render()
	if !strings.Contains(out, "Scaling study: intruder") {
		t.Fatalf("render header missing:\n%s", out)
	}
}

// TestScalingSingleCoreNoAborts: with one core there is no contention,
// so no scheme may abort.
func TestScalingSingleCoreNoAborts(t *testing.T) {
	sc, err := RunScaling("counter", allSchemes, []int{1}, Options{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allSchemes {
		if n := sc.Points[0].PerSch[s].Counters.TxAborted; n != 0 {
			t.Errorf("%s aborted %d transactions on one core", s, n)
		}
	}
}

// TestCampaignDriversHonourOptions: the seed study and the scaling study
// run their batches under the caller's Options, so OnProgress sees one
// snapshot per run.
func TestCampaignDriversHonourOptions(t *testing.T) {
	snaps := 0
	opts := Options{
		Cores: 4, Seed: 1, Scale: 0.05, Apps: []string{"counter"}, Jobs: 2,
		// Snapshots are emitted under the batch's progress lock.
		OnProgress: func(FleetProgress) { snaps++ },
	}
	if _, err := RunSeedStudy(opts, LogTMSE, SUVTM, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if snaps != 4 {
		t.Errorf("seed study: %d progress snapshots for 4 runs", snaps)
	}
	snaps = 0
	if _, err := RunScaling("counter", []Scheme{LogTMSE, SUVTM}, []int{1, 2, 4}, opts); err != nil {
		t.Fatal(err)
	}
	if snaps != 6 {
		t.Errorf("scaling study: %d progress snapshots for 6 runs", snaps)
	}
}
