package experiments

// fleet.go is the campaign-throughput layer around Run: a
// content-addressed cache of pure outcomes (internal/runcache),
// per-worker machine arenas that reuse the big allocations (memory
// pages, directory pages, redirect tables) across consecutive runs, and
// straggler-aware longest-expected-first scheduling. Every path keeps
// simulations bit-identical to a cold Run — arenas reset to the
// freshly-constructed state, and the cache only ever serves a
// fingerprint that resolves to the exact same machine.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"suvtm/internal/htm"
	"suvtm/internal/mem"
	"suvtm/internal/runcache"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
	"suvtm/internal/workload"
)

// BatchOptions tunes a RunManyWith batch. The zero value is the
// default fleet behavior: GOMAXPROCS workers, cache on, stop
// dispatching after the first failure. Every batch reuses per-worker
// arenas and dispatches longest-expected-first.
type BatchOptions struct {
	// Context, when non-nil, cancels dispatch: once it is done, workers
	// finish their in-flight run and stop pulling queued specs — even
	// under KeepGoing. Slots that were never dispatched stay nil, and
	// RunManyWith surfaces the context's error when that happens. This
	// is the seam an aborted HTTP request or a draining daemon uses to
	// stop a batch mid-flight instead of simulating to the end.
	Context context.Context
	// Jobs bounds the number of concurrent workers (0 = GOMAXPROCS).
	Jobs int
	// KeepGoing runs every spec even after one fails (chaos sweeps want
	// each cell's individual verdict).
	KeepGoing bool
	// NoCache skips the run cache entirely.
	NoCache bool
	// OnProgress, when non-nil, streams a FleetProgress snapshot after
	// every completed run, failures included. Progress is count-based,
	// never wall-clock-based, so streaming stays deterministic for a
	// fixed batch regardless of host timing. It is the telemetry seam a
	// long campaign's consumer — a progress bar, suvd — wires to. The
	// callback runs on a worker goroutine under the batch's progress
	// lock: keep it fast and do not call back into the fleet from inside
	// it.
	OnProgress func(FleetProgress)
}

// SchemeProgress is one scheme's live totals within a running batch,
// aggregated over the runs that have completed so far.
type SchemeProgress struct {
	Scheme         Scheme
	Runs           int
	Failed         int
	Commits        uint64
	Aborts         uint64
	TrueConflicts  uint64 // forensic runs only (0 otherwise)
	FalsePositives uint64 // forensic runs count all sources; else Counters.FalsePositive
	WastedCycles   uint64 // cycles thrown away in aborted attempts
}

// FleetProgress is a streaming snapshot of a batch in flight: overall
// completion, the campaign-layer counters, and per-scheme conflict
// totals (sorted by scheme name, deterministically).
type FleetProgress struct {
	Done    int // completed runs (including failures)
	Total   int
	Failed  int
	Fleet   FleetStats
	Schemes []SchemeProgress
}

// String renders the snapshot as a one-line progress report.
func (p FleetProgress) String() string {
	var sb []byte
	sb = fmt.Appendf(sb, "fleet progress: %d/%d done", p.Done, p.Total)
	if p.Failed > 0 {
		sb = fmt.Appendf(sb, " (%d failed)", p.Failed)
	}
	for _, s := range p.Schemes {
		sb = fmt.Appendf(sb, " | %s: %d runs, %d commits, %d aborts", s.Scheme, s.Runs, s.Commits, s.Aborts)
		if s.FalsePositives > 0 || s.TrueConflicts > 0 {
			sb = fmt.Appendf(sb, ", %d true-conf, %d false-pos", s.TrueConflicts, s.FalsePositives)
		}
	}
	return string(sb)
}

// progressTracker accumulates per-scheme totals as runs complete and
// emits a snapshot after each one.
type progressTracker struct {
	mu      sync.Mutex
	total   int
	done    int
	failed  int
	schemes map[Scheme]*SchemeProgress
	emit    func(FleetProgress)
}

func newProgressTracker(total int, o BatchOptions) *progressTracker {
	if o.OnProgress == nil {
		return nil
	}
	return &progressTracker{
		total:   total,
		schemes: make(map[Scheme]*SchemeProgress),
		emit:    o.OnProgress,
	}
}

// complete records one finished run and emits a snapshot. A nil
// tracker (no OnProgress) is a no-op.
func (t *progressTracker) complete(spec Spec, out *Outcome, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	sp, ok := t.schemes[spec.Scheme]
	if !ok {
		sp = &SchemeProgress{Scheme: spec.Scheme}
		t.schemes[spec.Scheme] = sp
	}
	sp.Runs++
	if err != nil {
		t.failed++
		sp.Failed++
	}
	if out != nil && out.Result != nil {
		sp.Commits += out.Counters.TxCommitted
		sp.Aborts += out.Counters.TxAborted
		sp.WastedCycles += out.Breakdown.Cycles[stats.Wasted]
		if out.Forensics != nil {
			sp.TrueConflicts += out.Forensics.Summary.TrueConflicts
			sp.FalsePositives += out.Forensics.Summary.FalsePositives
		} else {
			sp.FalsePositives += out.Counters.FalsePositive
		}
	}
	t.emit(t.snapshotLocked())
}

// snapshotLocked builds a deterministic snapshot; the caller holds mu.
func (t *progressTracker) snapshotLocked() FleetProgress {
	p := FleetProgress{Done: t.done, Total: t.total, Failed: t.failed, Fleet: FleetSnapshot()}
	//suv:orderinsensitive the map is drained into a slice sorted below
	for _, sp := range t.schemes {
		p.Schemes = append(p.Schemes, *sp)
	}
	sort.Slice(p.Schemes, func(i, j int) bool { return p.Schemes[i].Scheme < p.Schemes[j].Scheme })
	return p
}

// RunManyWith executes the specs concurrently under the given fleet
// options, returning outcomes in spec order regardless of dispatch
// order. On failure it returns the first error in spec order among the
// runs that executed; see RunMany for the partial-outcome contract.
// When o.Context is canceled mid-batch, dispatch stops and the
// context's error is returned if any spec was never dispatched. Unless
// o.NoCache is set, a pure spec's Result is shared with the run cache
// (see RunCached): read it, never write through it.
func RunManyWith(specs []Spec, o BatchOptions) ([]*Outcome, error) {
	outcomes, errs := runBatch(specs, o)
	for _, err := range errs {
		if err != nil {
			return outcomes, err
		}
	}
	if ctx := o.Context; ctx != nil && ctx.Err() != nil {
		for i := range outcomes {
			if outcomes[i] == nil && errs[i] == nil {
				return outcomes, ctx.Err()
			}
		}
	}
	return outcomes, nil
}

// RunCached is Run behind the fleet cache: a pure spec is served from
// (and stored to) the in-process and optional on-disk tiers, while
// specs with observability or fault-injection outputs fall through to a
// cold Run. A pure spec's Outcome.Result is shared with its cache entry
// (a hit's is the entry's own): read it, never write through it.
func RunCached(spec Spec) (*Outcome, error) {
	return runCachedSpec(spec, nil, BatchOptions{})
}

// runBatch is the fleet engine: one goroutine per worker, each holding
// its own arena, pulling the next spec index from a shared cursor over
// the dispatch order. Results land at their spec index, so consumers
// see submission order no matter how the scheduler reordered execution.
func runBatch(specs []Spec, o BatchOptions) ([]*Outcome, []error) {
	if len(specs) == 0 {
		return nil, nil
	}
	workers := o.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	order := dispatchOrder(specs)
	outcomes := make([]*Outcome, len(specs))
	errs := make([]error, len(specs))
	progress := newProgressTracker(len(specs), o)
	var cursor atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := arenaPool.Get().(*machineArena)
			defer arenaPool.Put(arena)
			for {
				if ctx.Err() != nil {
					return
				}
				if !o.KeepGoing && failed.Load() {
					return
				}
				n := int(cursor.Add(1)) - 1
				if n >= len(order) {
					return
				}
				i := order[n]
				outcomes[i], errs[i] = runCachedSpec(specs[i], arena, o)
				if errs[i] != nil {
					failed.Store(true)
				} else {
					observeCost(specs[i], outcomes[i])
				}
				progress.complete(specs[i], outcomes[i], errs[i])
			}
		}()
	}
	wg.Wait()
	return outcomes, errs
}

// arenaPool recycles worker arenas across runBatch calls, so a session
// that issues many small batches (the CLI sweep loop, benchmarks that
// batch per iteration) keeps its warm memory pages, prebuilt machine
// components and workload memo instead of rebuilding them per call.
// sync.Pool's GC integration is the eviction policy: idle warm state
// survives between nearby batches and is reclaimed under pressure.
var arenaPool = sync.Pool{New: func() any { return new(machineArena) }}

// machineArena is one worker's reusable machine state. The memory and
// allocator are reset between runs; the directory and redirect state
// are handed back to htm.NewWith, which resets them itself (they are
// geometry-dependent, so the reset needs the next run's config).
type machineArena struct {
	memory *mem.Memory
	alloc  *mem.Allocator
	pre    htm.Prebuilt

	// last is the worker's most recent workload image. A run of the same
	// (app, cores, seed, scale) — the next scheme of a comparison, which
	// dispatchOrder hands the same worker back to back — regenerates
	// nothing: the App is reused and the memory image is replayed from
	// the write journal.
	last workloadMemo
}

// workloadKey identifies one generated workload image. Generation is a
// pure function of these four values: the scheme is deliberately absent
// (workloads are built before the version manager exists), and faults,
// tweaks and observability options all act downstream of generation.
type workloadKey struct {
	app   string
	cores int
	seed  uint64
	scale float64
}

// keyOf returns the workload key spec generates.
func keyOf(spec Spec) workloadKey {
	cores, seed, scale := spec.resolved()
	return workloadKey{spec.App, cores, seed, scale}
}

// workloadMemo is one generated image: its key, the immutable App
// (programs are read-only during simulation; Check closures read memory
// only after the run), the memory write journal, and the allocator span
// the generator consumed.
type workloadMemo struct {
	key   workloadKey
	app   *workload.App
	log   *mem.WriteLog
	start sim.Addr // allocator cursor when generation began
	bytes uint64   // allocator bytes generation consumed
}

// generate returns the App for key, either replaying the worker's last
// image into the freshly reset memory/allocator or running gen
// (journaled) and keeping its image in place of the last one.
func (a *machineArena) generate(key workloadKey, memory *mem.Memory, alloc *mem.Allocator, gen func() *workload.App) *workload.App {
	if m := &a.last; m.key == key && alloc.Next() == m.start {
		m.log.Replay(memory)
		alloc.Alloc(m.bytes, 1)
		fleetWorkloadReplays.Add(1)
		return m.app
	}
	// Unpin the old image first, so the heap never holds two of them.
	a.last = workloadMemo{}
	start := alloc.Next()
	memory.StartJournal()
	app := gen()
	a.last = workloadMemo{key: key, app: app, log: memory.StopJournal(), start: start, bytes: uint64(alloc.Next() - start)}
	return app
}

// take returns the arena's memory, allocator and prebuilt components
// ready for the next run, constructing them on first use.
func (a *machineArena) take() (*mem.Memory, *mem.Allocator, htm.Prebuilt) {
	if a.memory == nil {
		a.memory = mem.NewMemory()
		a.alloc = mem.NewAllocator(heapBase, heapSize)
	} else {
		a.memory.Reset()
		a.alloc.Reset(heapBase, heapSize)
		fleetArenaReuses.Add(1)
	}
	return a.memory, a.alloc, a.pre
}

// keep retains the machine's reusable components for the next run.
func (a *machineArena) keep(m *htm.Machine) {
	l1s := a.pre.L1s[:0]
	for _, c := range m.Cores {
		l1s = append(l1s, c.L1)
	}
	a.pre = htm.Prebuilt{Dir: m.Dir, Redirect: m.Redirect, L2: m.L2, L1s: l1s}
}

// ---------------------------------------------------------------------
// Run cache glue.

var (
	fleetCache       = runcache.New()
	fleetVerifyEvery atomic.Int64 // 0 = off; N = re-simulate 1st and every Nth hit
	fleetHitSeq      atomic.Uint64
	fleetVerified    atomic.Uint64
	fleetArenaReuses atomic.Uint64

	fleetWorkloadReplays atomic.Uint64
)

// SetRunCacheDir attaches (dir != "") or detaches (dir == "") the
// on-disk cache tier for this process.
func SetRunCacheDir(dir string) error { return fleetCache.SetDir(dir) }

// SetRunCacheVerify arms spot-check mode: the first and every Nth cache
// hit is re-simulated and compared bit-for-bit against the cached
// entry; a divergence fails the run. 0 disables.
func SetRunCacheVerify(everyN int) {
	fleetVerifyEvery.Store(int64(everyN))
	fleetHitSeq.Store(0)
}

// ResetRunCache drops the in-process cache tier and zeroes the fleet
// counters, keeping any configured disk tier attached (tests and
// benchmarks use it between batches to return to a cold or disk-only
// state). It never fails.
func ResetRunCache() error {
	fleetCache.Reset()
	fleetHitSeq.Store(0)
	fleetVerified.Store(0)
	fleetArenaReuses.Store(0)
	fleetWorkloadReplays.Store(0)
	return nil
}

// FleetStats snapshots the campaign-layer counters: run-cache activity,
// verify spot-checks, and arena reuse, cumulative since process start
// or the last ResetRunCache.
type FleetStats struct {
	runcache.Stats
	Verified    uint64 // cache hits cross-checked against a live re-run
	ArenaReuses uint64 // machine constructions served from a warm arena

	WorkloadReplays uint64 // workload generations served by journal replay
}

// FleetSnapshot returns the current fleet counters.
func FleetSnapshot() FleetStats {
	return FleetStats{
		Stats:       fleetCache.Stats(),
		Verified:    fleetVerified.Load(),
		ArenaReuses: fleetArenaReuses.Load(),

		WorkloadReplays: fleetWorkloadReplays.Load(),
	}
}

// String renders the counters as the one-line summary the sweep
// commands print.
func (s FleetStats) String() string {
	return fmt.Sprintf("fleet: %d cache hits (%d from disk), %d misses, %d bypasses, %d verified, %d corrupt entries, %d arena reuses, %d workload replays",
		s.Hits, s.DiskHits, s.Misses, s.Bypasses, s.Verified, s.Corrupt, s.ArenaReuses, s.WorkloadReplays)
}

// Cacheable reports whether spec is a pure run the cache may serve.
// Trace, metrics, Chrome-trace, forensics and fault-injected runs carry
// outputs that live outside the cached entry, so they always bypass.
func Cacheable(spec Spec) bool {
	return spec.TraceEvents == 0 && !spec.wantMetrics() && !spec.Forensics &&
		spec.FaultPlan == "" && spec.Faults == nil
}

// Cached reports whether spec would be served from the run cache right
// now: pure (Cacheable) and fingerprint-resident in the memory or disk
// tier. The probe never simulates and never skews the hit/miss
// counters; suvd's load-shedding ladder uses it to admit only
// cache-servable work when degraded.
func Cached(spec Spec) bool {
	return Cacheable(spec) && fleetCache.Peek(fingerprintOf(spec))
}

// fingerprintOf resolves a pure spec exactly as runSpec does — defaults
// applied, Spec.Tweak applied to the Table III config — and digests the
// canonical encoding. Only Cacheable specs reach it, so there is no
// fault plan to resolve and the fault-plan text is empty. Tweak closures
// must be deterministic functions of the config alone (every
// sweep/ablation tweak is).
func fingerprintOf(spec Spec) runcache.Key {
	cores, seed, scale := spec.resolved()
	cfg := htm.DefaultConfig(cores)
	cfg.Seed = seed
	if spec.Tweak != nil {
		cfg = tweaked(cfg, spec.Tweak)
	}
	return runcache.KeyOf(spec.App, string(spec.Scheme), cores, seed, scale, cfg, "")
}

// tweaked returns cfg after tweak. The copy escapes into the closure, so
// only a tweaked spec's fingerprint allocates.
func tweaked(cfg htm.Config, tweak func(*htm.Config)) htm.Config {
	tweak(&cfg)
	return cfg
}

// runCachedSpec is runSpec behind the cache: bypass impure specs, serve
// hits (spot-checking when armed), and store successful invariant-clean
// outcomes. A hit's Result is the entry's own; a stored miss's Result
// shares its PerCore rows with the entry.
func runCachedSpec(spec Spec, arena *machineArena, o BatchOptions) (*Outcome, error) {
	if o.NoCache {
		return runSpec(spec, arena)
	}
	if !Cacheable(spec) {
		fleetCache.Bypass()
		return runSpec(spec, arena)
	}
	var out *Outcome
	var err error
	run := func() *runcache.Entry {
		if out, err = runSpec(spec, arena); err != nil || out.CheckErr != nil {
			return nil
		}
		return &runcache.Entry{Result: *out.Result, PoolPages: out.PoolPages, RedirectEn: out.RedirectEn}
	}
	e, hit := fleetCache.Do(fingerprintOf(spec), run)
	if !hit {
		return out, err
	}
	if every := fleetVerifyEvery.Load(); every > 0 {
		if n := fleetHitSeq.Add(1); (n-1)%uint64(every) == 0 {
			fresh := run()
			if err != nil {
				return out, fmt.Errorf("runcache verify: live re-run failed: %w", err)
			}
			if !e.Equal(fresh) {
				return out, fmt.Errorf("runcache verify: cached outcome for %s under %s diverges from a live re-run (stale or corrupted cache dir?)", spec.App, spec.Scheme)
			}
			fleetVerified.Add(1)
		}
	}
	// AppMeta stays nil (no generator ran) and CheckErr nil (only
	// invariant-clean runs are stored).
	return &Outcome{Spec: spec, Result: &e.Result, PoolPages: e.PoolPages, RedirectEn: e.RedirectEn}, nil
}

// ---------------------------------------------------------------------
// Straggler-aware scheduling.

var (
	costMu    sync.Mutex
	costTable = make(map[string]float64) // app -> estimated cycles per unit scale
)

// dispatchOrder returns the order in which to execute specs:
// longest-expected-first (the classic LPT makespan heuristic), so a
// slow bayes run starts immediately instead of serializing the tail of
// the batch. Equal costs group by workload, in the order the batch first
// names each one, so a worker's runs of one workload come back to back
// and replay its last image. The sort is stable, keeping submission
// order within a workload — a batch of identical specs (chaos replays)
// executes unchanged.
func dispatchOrder(specs []Spec) []int {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	if len(specs) < 2 {
		return order
	}
	cost := make([]float64, len(specs))
	first := make([]int, len(specs)) // index of the first spec of the same workload
	seen := make(map[workloadKey]int, len(specs))
	for i := range specs {
		cost[i] = expectedCost(specs[i])
		k := keyOf(specs[i])
		f, ok := seen[k]
		if !ok {
			f = i
			seen[k] = f
		}
		first[i] = f
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if cost[i] != cost[j] {
			return cost[i] > cost[j]
		}
		return first[i] < first[j]
	})
	return order
}

// expectedCost estimates how long spec will simulate, in comparable
// units: the per-app cost table (observed cycles per unit scale once a
// run finishes, a generator-metadata estimate before that) times the
// spec's scale.
func expectedCost(spec Spec) float64 {
	_, _, scale := spec.resolved()
	return appCost(spec.App) * scale
}

// appCost returns the table entry for app, seeding it on first use.
func appCost(app string) float64 {
	costMu.Lock()
	c, ok := costTable[app]
	costMu.Unlock()
	if ok {
		return c
	}
	c = seedCost(app) // generation probe runs outside the lock
	costMu.Lock()
	if cur, exists := costTable[app]; exists {
		c = cur // an observed value raced in; prefer it
	} else {
		costTable[app] = c
	}
	costMu.Unlock()
	return c
}

// seedCost derives a first estimate from the workload generator's
// metadata (AppMeta): generate a tiny instance — a few thousand trace
// ops, microseconds of host time — and extrapolate ops per core per
// unit scale. High-contention apps weigh extra because their
// abort/retry traffic, not their op count, dominates campaign wall
// time; the nominal per-op cycle factor keeps seeded and observed
// entries in roughly the same units within one table. Unknown apps get
// +Inf so they dispatch first and fail the batch fast.
func seedCost(app string) float64 {
	gen, err := workload.Get(app)
	if err != nil {
		return math.Inf(1)
	}
	const (
		probeCores = 2
		probeScale = 0.05
		nominalCPI = 6 // rough simulated cycles per trace op
	)
	memory := mem.NewMemory()
	alloc := mem.NewAllocator(heapBase, heapSize)
	meta := gen(workload.GenConfig{Cores: probeCores, Seed: 1, Scale: probeScale}, alloc, memory)
	cost := nominalCPI * float64(meta.TotalOps()) / (probeCores * probeScale)
	if meta.HighContention {
		cost *= 3
	}
	return cost
}

// observeCost refines the table with a finished run's actual cycle
// count, normalized per unit scale, as an equal-weight moving average.
func observeCost(spec Spec, out *Outcome) {
	if out == nil || out.Result == nil || out.Cycles == 0 {
		return
	}
	_, _, scale := spec.resolved()
	obs := float64(out.Cycles) / scale
	costMu.Lock()
	if cur, ok := costTable[spec.App]; ok && !math.IsInf(cur, 1) {
		costTable[spec.App] = (cur + obs) / 2
	} else {
		costTable[spec.App] = obs
	}
	costMu.Unlock()
}
