package experiments

import (
	"context"
	"os"
	"reflect"
	"testing"

	"suvtm/internal/htm"
)

// fleetSpec is a small, fast run the cache tests reuse.
var fleetSpec = Spec{App: "intruder", Scheme: SUVTM, Cores: 4, Scale: 0.05}

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
	good := fleetSpec
	bad := Spec{App: "no-such-app", Scheme: SUVTM}
	specs := []Spec{good, bad, good, good, good}
	// One worker + submission order makes the schedule deterministic:
	// the good spec at index 0 runs, index 1 fails, 2..4 never dispatch.
	outs, err := RunManyWith(specs, BatchOptions{Jobs: 1, NoSchedule: true})
	if err == nil {
		t.Fatal("expected the unknown-app error")
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
	outs, errs := runBatch(specs, BatchOptions{Jobs: 1, NoSchedule: true, KeepGoing: true})
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
	key, err := fingerprintOf(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := fleetCache.Load().Get(key)
	if !ok {
		t.Fatal("entry vanished")
	}
	poisoned := *e
	poisoned.Cycles++
	fleetCache.Load().Put(key, &poisoned)
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
	key, err := fingerprintOf(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	path := fleetCache.Load().EntryPath(key)
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

// TestDispatchOrder: longest-expected-first, stable among equals, and
// submission order under NoSchedule.
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
	got := dispatchOrder(specs, BatchOptions{})
	want := []int{1, 3, 2, 0} // bayes, bayes@0.5, intruder, kmeans
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order = %v, want %v", got, want)
	}
	got = dispatchOrder(specs, BatchOptions{NoSchedule: true})
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("NoSchedule order = %v", got)
	}

	// Identical specs keep submission order (chaos replay pairs).
	same := []Spec{
		{App: "intruder", Scheme: SUVTM},
		{App: "intruder", Scheme: SUVTM},
	}
	if got := dispatchOrder(same, BatchOptions{}); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("equal-cost order = %v, want [0 1]", got)
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
	// One worker + submission order + per-completion progress makes the
	// schedule deterministic: the callback cancels after run 0, so runs
	// 1..4 must never dispatch. NoCache keeps every dispatch a real run.
	outs, err := RunManyWith(specs, BatchOptions{
		Jobs: 1, NoSchedule: true, NoCache: true, KeepGoing: true,
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

// TestWorkloadMemoKeepsOnlyTheBatch pins the memo's scope: a worker
// handed its arena for a batch drops the images no spec in the batch
// uses, and keeps the ones it does, so a batch with fresh seeds starts
// from a memo holding nothing dead, in-batch repeats still replay, and a
// repeated batch replays every image.
func TestWorkloadMemoKeepsOnlyTheBatch(t *testing.T) {
	batch := func(seed uint64) []Spec {
		return []Spec{
			{App: "intruder", Scheme: SUVTM, Cores: 4, Seed: seed, Scale: 0.05},
			{App: "intruder", Scheme: LogTMSE, Cores: 4, Seed: seed, Scale: 0.05},
			{App: "kmeans", Scheme: SUVTM, Cores: 4, Seed: seed, Scale: 0.05},
		}
	}
	arena := new(machineArena)
	run := func(specs []Spec) uint64 {
		t.Helper()
		arena.prune(batchKeys(specs))
		before := fleetWorkloadReplays.Load()
		for _, s := range specs {
			if _, err := runSpec(s, arena); err != nil {
				t.Fatal(err)
			}
		}
		return fleetWorkloadReplays.Load() - before
	}
	if n := run(batch(11)); n != 1 {
		t.Fatalf("first batch replayed %d images, want 1 (the repeated intruder key)", n)
	}
	if n := run(batch(12)); n != 1 {
		t.Fatalf("second batch replayed %d images, want 1", n)
	}
	want := batchKeys(batch(12))
	if len(arena.workloads) != len(want) {
		t.Fatalf("memo holds %d images after the second batch, want its %d", len(arena.workloads), len(want))
	}
	cost := 0
	for key, rec := range arena.workloads {
		if !want[key] {
			t.Fatalf("memo kept %+v from the first batch", key)
		}
		cost += rec.cost
	}
	if cost != arena.wlCost {
		t.Fatalf("memo cost %d, entries sum to %d", arena.wlCost, cost)
	}
	if n := run(batch(12)); n != 3 {
		t.Fatalf("repeated batch replayed %d images, want all 3", n)
	}
}
