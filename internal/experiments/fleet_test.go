package experiments

import (
	"context"
	"os"
	"reflect"
	"testing"

	"suvtm/internal/htm"
	"suvtm/internal/runcache"
)

// fleetSpec is a small, fast run the cache tests reuse.
var fleetSpec = Spec{App: "intruder", Scheme: SUVTM, Cores: 4, Scale: 0.05}

// fleetSpecs returns fleetSpec and a copy of it that fails with an
// unknown scheme. Both have the same app and scale, so the same
// expected cost: a batch of them dispatches in submission order.
func fleetSpecs() (good, bad Spec) {
	bad = fleetSpec
	bad.Scheme = "no-such-scheme"
	return fleetSpec, bad
}

// resetFleetForTest gives each test a cold cache with no disk tier and
// restores nothing (tests run sequentially in one package).
func resetFleetForTest(t *testing.T) {
	t.Helper()
	if err := SetRunCacheDir(""); err != nil {
		t.Fatal(err)
	}
	SetRunCacheVerify(0)
	if err := ResetRunCache(); err != nil {
		t.Fatal(err)
	}
}

func sameOutcome(a, b *Outcome) bool {
	if a == nil || b == nil || a.Result == nil || b.Result == nil {
		return false
	}
	return a.Cycles == b.Cycles && a.Breakdown == b.Breakdown &&
		a.Counters == b.Counters && reflect.DeepEqual(a.PerCore, b.PerCore) &&
		a.PoolPages == b.PoolPages && a.RedirectEn == b.RedirectEn
}

// TestRunManyStopsAfterFailure is the regression test for the RunMany
// doc-comment contract: once a run fails, no further specs are
// dispatched, but outcomes computed before the failure are kept.
func TestRunManyStopsAfterFailure(t *testing.T) {
	resetFleetForTest(t)
	good, bad := fleetSpecs()
	specs := []Spec{good, bad, good, good, good}
	// One worker makes the schedule deterministic: every spec has the
	// same expected cost, so dispatch keeps submission order. The good
	// spec at index 0 runs, index 1 fails, 2..4 never dispatch.
	outs, err := RunManyWith(specs, BatchOptions{Jobs: 1})
	if err == nil {
		t.Fatal("expected the unknown-scheme error")
	}
	if outs[0] == nil || outs[0].Result == nil {
		t.Error("outcome computed before the failure was dropped")
	}
	for i := 2; i < len(specs); i++ {
		if outs[i] != nil {
			t.Errorf("spec %d was dispatched after the failure", i)
		}
	}

	// KeepGoing restores the run-everything behavior chaos sweeps need.
	outs, errs := runBatch(specs, BatchOptions{Jobs: 1, KeepGoing: true})
	for i := range specs {
		wantErr := i == 1
		if (errs[i] != nil) != wantErr {
			t.Errorf("KeepGoing spec %d: err=%v", i, errs[i])
		}
		if !wantErr && (outs[i] == nil || outs[i].Result == nil) {
			t.Errorf("KeepGoing spec %d: missing outcome", i)
		}
	}
}

// TestRunCacheHitDeterminism: the same pure spec twice returns an
// identical Result, first as a miss, then served from the cache — and
// both match a cold Run.
func TestRunCacheHitDeterminism(t *testing.T) {
	resetFleetForTest(t)
	first, err := RunManyWith([]Spec{fleetSpec}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunManyWith([]Spec{fleetSpec}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(first[0], second[0]) {
		t.Error("cache-served outcome differs from the live run")
	}
	cold, err := Run(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(first[0], cold) {
		t.Error("fleet outcome differs from a cold Run")
	}
	s := FleetSnapshot()
	if s.Misses != 1 || s.Hits != 1 || s.Stores != 1 {
		t.Errorf("fleet stats = %+v", s)
	}
}

// TestRunCacheVerify arms spot-check mode and proves a clean cache
// passes while a poisoned entry fails the batch.
func TestRunCacheVerify(t *testing.T) {
	resetFleetForTest(t)
	SetRunCacheVerify(1) // re-simulate every hit
	if _, err := RunManyWith([]Spec{fleetSpec}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunManyWith([]Spec{fleetSpec}, BatchOptions{}); err != nil {
		t.Fatalf("verify of an honest cache failed: %v", err)
	}
	if s := FleetSnapshot(); s.Verified != 1 {
		t.Errorf("verified = %d, want 1", s.Verified)
	}

	// Poison the cached entry; the next hit must fail loudly.
	key := fingerprintOf(fleetSpec)
	e, ok := fleetCache.Get(key)
	if !ok {
		t.Fatal("entry vanished")
	}
	poisoned := *e
	poisoned.Cycles++
	fleetCache.Put(key, &poisoned)
	if _, err := RunManyWith([]Spec{fleetSpec}, BatchOptions{}); err == nil {
		t.Fatal("verify did not catch a poisoned cache entry")
	}
}

// TestRunCacheBypass: metrics, trace, Chrome-trace and fault-injected
// specs must bypass the cache so their side outputs are real, and the
// bypass must be visible in the counters.
func TestRunCacheBypass(t *testing.T) {
	resetFleetForTest(t)
	impure := []Spec{
		{App: "intruder", Scheme: SUVTM, Cores: 4, Scale: 0.05, Metrics: true},
		{App: "intruder", Scheme: SUVTM, Cores: 4, Scale: 0.05, TraceEvents: 4},
		{App: "intruder", Scheme: SUVTM, Cores: 4, Scale: 0.05, ChromeTrace: true},
		{App: "intruder", Scheme: SUVTM, Cores: 4, Scale: 0.05, FaultPlan: "nack-storm"},
	}
	for _, spec := range impure {
		if Cacheable(spec) {
			t.Errorf("spec %+v should not be cacheable", spec)
		}
	}
	// Twice: were these cached, the second batch would serve stale
	// outcomes with nil Metrics/Trace.
	for round := 0; round < 2; round++ {
		outs, err := RunManyWith(impure, BatchOptions{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if outs[0].Metrics == nil {
			t.Fatal("metrics output missing")
		}
		if outs[1].Trace == nil {
			t.Fatal("trace output missing")
		}
		if outs[2].Chrome == nil {
			t.Fatal("Chrome trace output missing")
		}
		if outs[3].Counters.InjectedNACKs == 0 {
			t.Fatal("fault plan did not inject")
		}
	}
	s := FleetSnapshot()
	if s.Bypasses != 8 || s.Hits != 0 || s.Stores != 0 {
		t.Errorf("fleet stats = %+v", s)
	}
}

// TestRunCacheDiskTier drives the on-disk tier through the experiments
// layer: entries persist across an in-process cache reset, and a
// corrupted file falls back to a live run without erroring.
func TestRunCacheDiskTier(t *testing.T) {
	resetFleetForTest(t)
	dir := t.TempDir()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resetFleetForTest(t) })

	first, err := RunManyWith([]Spec{fleetSpec}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := fingerprintOf(fleetSpec)
	path := fleetCache.EntryPath(key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry not persisted: %v", err)
	}

	// Drop the memory tier; the disk tier must serve the same outcome.
	if err := ResetRunCache(); err != nil {
		t.Fatal(err)
	}
	warm, err := RunManyWith([]Spec{fleetSpec}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(first[0], warm[0]) {
		t.Error("disk-served outcome differs")
	}
	if s := FleetSnapshot(); s.DiskHits != 1 {
		t.Errorf("fleet stats = %+v", s)
	}

	// Corrupt the entry: the next batch re-simulates, silently.
	if err := os.WriteFile(path, []byte("truncated garba"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ResetRunCache(); err != nil {
		t.Fatal(err)
	}
	live, err := RunManyWith([]Spec{fleetSpec}, BatchOptions{})
	if err != nil {
		t.Fatalf("corrupt entry broke the batch: %v", err)
	}
	if !sameOutcome(first[0], live[0]) {
		t.Error("post-corruption live outcome differs")
	}
	s := FleetSnapshot()
	if s.Corrupt != 1 || s.Misses != 1 {
		t.Errorf("fleet stats = %+v", s)
	}
}

// TestFingerprintHotPathAllocs pins the warm path's fingerprint cost:
// KeyOf builds and hashes its preimage on the stack, and fingerprintOf
// adds at most the tweaked config, which escapes into the Tweak closure.
func TestFingerprintHotPathAllocs(t *testing.T) {
	cfg := htm.DefaultConfig(16)
	if n := testing.AllocsPerRun(100, func() {
		runcache.KeyOf("yada", string(SUVTM), 16, 1_000_001, 1, cfg, "")
	}); n != 0 {
		t.Errorf("KeyOf allocates %v times", n)
	}
	spec := Spec{App: "yada", Scheme: SUVTM, Cores: 16, Seed: 1_000_001, Scale: 1}
	if n := testing.AllocsPerRun(100, func() { fingerprintOf(spec) }); n != 0 {
		t.Errorf("fingerprintOf of a pure spec allocates %v times", n)
	}
	spec.Tweak = func(c *htm.Config) { c.Redirect.L1Entries = 64 }
	if n := testing.AllocsPerRun(100, func() { fingerprintOf(spec) }); n > 1 {
		t.Errorf("fingerprintOf of a tweaked pure spec allocates %v times", n)
	}
}

// TestFleetMatchesCold: a heterogeneous batch under full fleet options
// (arenas, scheduling, cache) is bit-identical to cold Runs of the same
// specs.
func TestFleetMatchesCold(t *testing.T) {
	resetFleetForTest(t)
	specs := []Spec{
		{App: "intruder", Scheme: SUVTM, Cores: 4, Scale: 0.05},
		{App: "vacation", Scheme: LogTMSE, Cores: 4, Scale: 0.05},
		{App: "kmeans", Scheme: FasTM, Cores: 4, Scale: 0.05},
		{App: "intruder", Scheme: SUVTM, Cores: 4, Scale: 0.05}, // repeat: cache hit
		{App: "vacation", Scheme: SUVTM, Cores: 2, Scale: 0.05}, // geometry change mid-arena
	}
	outs, err := RunManyWith(specs, BatchOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		cold, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutcome(outs[i], cold) {
			t.Errorf("spec %d (%s/%s): fleet outcome differs from cold run", i, spec.App, spec.Scheme)
		}
	}
	s := FleetSnapshot()
	if s.Hits != 1 {
		t.Errorf("repeated spec was not deduped: %+v", s)
	}
	if s.ArenaReuses == 0 {
		t.Error("arenas were never reused")
	}
}

// TestFleetCoalescesConcurrentMisses: identical specs dispatched to
// workers at once run once. The first miss leads; the rest wait for it
// and are served from the cache, each counted as a hit and not a miss.
func TestFleetCoalescesConcurrentMisses(t *testing.T) {
	resetFleetForTest(t)
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = fleetSpec
	}
	outs, err := RunManyWith(specs, BatchOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if !sameOutcome(out, cold) {
			t.Errorf("spec %d: coalesced outcome differs from a cold run", i)
		}
	}
	if s := FleetSnapshot(); s.Misses != 1 || s.Hits != 7 || s.Stores != 1 {
		t.Errorf("fleet stats = %+v, want 1 miss, 7 hits, 1 store", s)
	}
}

// TestFleetFollowerRunsWhenLeaderFails: a leader whose run fails stores
// nothing, so every concurrent duplicate runs the spec itself and gets
// the failure first-hand.
func TestFleetFollowerRunsWhenLeaderFails(t *testing.T) {
	resetFleetForTest(t)
	failing := fleetSpec
	failing.Tweak = func(c *htm.Config) { c.MaxCycles = 1000 } // the watchdog fires
	specs := []Spec{failing, failing, failing, failing}
	outs, err := RunManyWith(specs, BatchOptions{Jobs: 4, KeepGoing: true})
	if err == nil {
		t.Fatal("a batch of watchdog-failing specs succeeded")
	}
	if len(outs) != len(specs) {
		t.Fatalf("got %d outcomes for %d specs", len(outs), len(specs))
	}
	if s := FleetSnapshot(); s.Misses != 4 || s.Hits != 0 || s.Stores != 0 {
		t.Errorf("fleet stats = %+v, want 4 misses and nothing stored or served", s)
	}
}

// TestDispatchOrder: longest-expected-first, stable among equals.
func TestDispatchOrder(t *testing.T) {
	costMu.Lock()
	costTable["intruder"] = 1000
	costTable["kmeans"] = 10
	costTable["bayes"] = 5000
	costMu.Unlock()
	specs := []Spec{
		{App: "kmeans", Scheme: SUVTM},
		{App: "bayes", Scheme: SUVTM},
		{App: "intruder", Scheme: SUVTM},
		{App: "bayes", Scheme: SUVTM, Scale: 0.5}, // half the expected work
	}
	got := dispatchOrder(specs)
	want := []int{1, 3, 2, 0} // bayes, bayes@0.5, intruder, kmeans
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order = %v, want %v", got, want)
	}

	// Identical specs keep submission order (chaos replay pairs).
	same := []Spec{
		{App: "intruder", Scheme: SUVTM},
		{App: "intruder", Scheme: SUVTM},
	}
	if got := dispatchOrder(same); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("equal-cost order = %v, want [0 1]", got)
	}

	// An equal-cost batch that cycles through workloads, as the chaos
	// sweep submits its seeds, groups by workload in first-seen order and
	// keeps identical specs in submission order.
	chaos := []Spec{
		{App: "intruder", Scheme: SUVTM, Seed: 2},
		{App: "intruder", Scheme: SUVTM, Seed: 2}, // replay of 0
		{App: "intruder", Scheme: SUVTM, Seed: 1},
		{App: "intruder", Scheme: LogTMSE, Seed: 2},
		{App: "intruder", Scheme: LogTMSE, Seed: 1},
		{App: "intruder", Scheme: SUVTM, Seed: 3},
		{App: "intruder", Scheme: LogTMSE, Seed: 2},
	}
	if got, want := dispatchOrder(chaos), []int{0, 1, 3, 6, 2, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("interleaved equal-cost order = %v, want %v (seed 2, seed 1, seed 3)", got, want)
	}
}

// TestRunManyContextCancel pins the BatchOptions.Context contract: once
// the context is done, no further specs are dispatched (even with
// KeepGoing) and RunManyWith surfaces the context error for the
// never-dispatched slots.
func TestRunManyContextCancel(t *testing.T) {
	resetFleetForTest(t)
	specs := []Spec{fleetSpec, fleetSpec, fleetSpec, fleetSpec, fleetSpec}
	ctx, cancel := context.WithCancel(context.Background())
	// One worker + identical specs (dispatched in submission order) +
	// per-completion progress makes the schedule deterministic: the
	// callback cancels after run 0, so runs 1..4 must never dispatch.
	// NoCache keeps every dispatch a real run.
	outs, err := RunManyWith(specs, BatchOptions{
		Jobs: 1, NoCache: true, KeepGoing: true,
		Context:    ctx,
		OnProgress: func(FleetProgress) { cancel() },
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if outs[0] == nil || outs[0].Result == nil {
		t.Error("the in-flight run at cancel time was dropped")
	}
	for i := 1; i < len(specs); i++ {
		if outs[i] != nil {
			t.Errorf("spec %d was dispatched after cancellation", i)
		}
	}

	// A pre-canceled context dispatches nothing at all.
	outs, err = RunManyWith(specs, BatchOptions{Jobs: 1, Context: ctx})
	if err != context.Canceled {
		t.Fatalf("pre-canceled err = %v, want context.Canceled", err)
	}
	for i, o := range outs {
		if o != nil {
			t.Errorf("spec %d ran under a pre-canceled context", i)
		}
	}

	// A batch that completes before cancellation reports no error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	outs, err = RunManyWith(specs[:2], BatchOptions{Jobs: 1, Context: ctx2})
	cancel2()
	if err != nil {
		t.Fatalf("completed batch err = %v", err)
	}
	for i, o := range outs {
		if o == nil || o.Result == nil {
			t.Errorf("spec %d missing outcome", i)
		}
	}
}

// TestFleetProgressEveryCompletion pins the OnProgress contract: one
// snapshot per completed run, failures included, with Done rising by one
// each time — also when a failure stops dispatch before Done reaches
// Total.
func TestFleetProgressEveryCompletion(t *testing.T) {
	resetFleetForTest(t)
	var specs []Spec
	for seed := uint64(1); seed <= 4; seed++ {
		s := fleetSpec
		s.Seed = seed
		specs = append(specs, s)
	}
	// The callback runs under the batch's progress lock, so appends
	// from different workers never interleave.
	var snaps []FleetProgress
	record := func(p FleetProgress) { snaps = append(snaps, p) }
	if _, err := RunManyWith(specs, BatchOptions{Jobs: 2, OnProgress: record}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(specs) {
		t.Fatalf("%d snapshots for %d runs", len(snaps), len(specs))
	}
	for i, p := range snaps {
		if p.Done != i+1 || p.Total != len(specs) || p.Failed != 0 {
			t.Errorf("snapshot %d reads %d/%d done, %d failed; want %d/%d, 0", i, p.Done, p.Total, p.Failed, i+1, len(specs))
		}
	}
	if s := snaps[len(snaps)-1].Schemes; len(s) != 1 || s[0].Runs != len(specs) {
		t.Errorf("final per-scheme totals = %+v, want one scheme with %d runs", s, len(specs))
	}

	// One worker in submission order: good runs, bad fails, and the two
	// good specs after it never dispatch. The last snapshot must still
	// report the failed run.
	good, bad := fleetSpecs()
	snaps = nil
	if _, err := RunManyWith([]Spec{good, bad, good, good}, BatchOptions{Jobs: 1, OnProgress: record}); err == nil {
		t.Fatal("expected the unknown-scheme error")
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots for 2 completed runs", len(snaps))
	}
	if last := snaps[1]; last.Done != 2 || last.Failed != 1 || last.Total != 4 {
		t.Errorf("last snapshot reads %d/%d done, %d failed; want 2/4, 1", last.Done, last.Total, last.Failed)
	}
}

// TestWorkloadMemoReplaysConsecutiveRuns pins the memo's scope: a worker
// keeps only its last workload image, so a run replays it when the run
// before it on that worker generated the same workload, and regenerates
// after any other workload came between them.
func TestWorkloadMemoReplaysConsecutiveRuns(t *testing.T) {
	intruder := func(s Scheme) Spec { return Spec{App: "intruder", Scheme: s, Cores: 4, Seed: 11, Scale: 0.05} }
	kmeans := Spec{App: "kmeans", Scheme: SUVTM, Cores: 4, Seed: 11, Scale: 0.05}
	arena := new(machineArena)
	for i, step := range []struct {
		spec   Spec
		replay bool
	}{
		{intruder(SUVTM), false},
		{intruder(LogTMSE), true}, // the same workload, back to back
		{intruder(FasTM), true},
		{kmeans, false},
		{intruder(SUVTM), false}, // kmeans replaced the intruder image
		{intruder(LogTMSE), true},
	} {
		before := fleetWorkloadReplays.Load()
		out, err := runSpec(step.spec, arena)
		if err != nil {
			t.Fatal(err)
		}
		if replayed := fleetWorkloadReplays.Load() != before; replayed != step.replay {
			t.Errorf("run %d (%s/%s): replayed = %v, want %v", i, step.spec.App, step.spec.Scheme, replayed, step.replay)
		}
		if cold, err := Run(step.spec); err != nil || !sameOutcome(out, cold) {
			t.Errorf("run %d (%s/%s): arena outcome differs from a cold run (%v)", i, step.spec.App, step.spec.Scheme, err)
		}
	}
	if got, want := arena.last.key, keyOf(intruder(SUVTM)); got != want {
		t.Errorf("arena holds %+v, want the last run's %+v", got, want)
	}
}
