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

	"suvtm/internal/faults"
	"suvtm/internal/htm"
	"suvtm/internal/mem"
	"suvtm/internal/runcache"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
	"suvtm/internal/workload"
)

// BatchOptions tunes a RunManyWith batch. The zero value is the
// default fleet behavior: GOMAXPROCS workers, arenas on, cache on,
// straggler-aware dispatch, stop dispatching after the first failure.
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
	// NoArena cold-constructs every machine instead of reusing
	// per-worker arenas (baseline measurements).
	NoArena bool
	// NoSchedule dispatches in submission order instead of
	// longest-expected-first.
	NoSchedule bool
	// NoCache skips the run cache entirely.
	NoCache bool
	// OnProgress, when non-nil, streams a FleetProgress snapshot after
	// every ProgressEvery completed runs (and once when the batch
	// drains). It is the telemetry seam a long campaign's consumer —
	// a progress bar, the future suvd — wires to. The callback runs on a
	// worker goroutine under the batch's progress lock: keep it fast and
	// do not call back into the fleet from inside it.
	OnProgress func(FleetProgress)
	// ProgressEvery is the completed-run granularity of OnProgress
	// (<=0 = every completion). Progress is count-based, never
	// wall-clock-based, so streaming stays deterministic for a fixed
	// batch regardless of host timing.
	ProgressEvery int
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
// emits snapshots at the configured granularity.
type progressTracker struct {
	mu      sync.Mutex
	total   int
	done    int
	failed  int
	every   int
	sinceCb int
	schemes map[Scheme]*SchemeProgress
	emit    func(FleetProgress)
}

func newProgressTracker(total int, o BatchOptions) *progressTracker {
	if o.OnProgress == nil {
		return nil
	}
	every := o.ProgressEvery
	if every <= 0 {
		every = 1
	}
	return &progressTracker{
		total:   total,
		every:   every,
		schemes: make(map[Scheme]*SchemeProgress),
		emit:    o.OnProgress,
	}
}

// complete records one finished run and emits a snapshot when due. A
// nil tracker (no OnProgress) is a no-op.
func (t *progressTracker) complete(spec Spec, out *Outcome, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	t.sinceCb++
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
	if t.sinceCb >= t.every || t.done == t.total {
		t.sinceCb = 0
		t.emit(t.snapshotLocked())
	}
}

// finish emits the final snapshot if completions are still unreported
// (a batch that stopped dispatching after a failure never reaches
// done == total).
func (t *progressTracker) finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sinceCb > 0 {
		t.sinceCb = 0
		t.emit(t.snapshotLocked())
	}
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
// context's error is returned if any spec was never dispatched.
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
// cold Run.
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
	order := dispatchOrder(specs, o)
	var keep map[workloadKey]bool
	if !o.NoArena {
		keep = batchKeys(specs)
	}
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
			var arena *machineArena
			if !o.NoArena {
				arena = arenaPool.Get().(*machineArena)
				arena.prune(keep)
				defer arenaPool.Put(arena)
			}
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
	progress.finish()
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

	// workloads memoizes generated workload images so a sweep that
	// revisits the same (app, cores, seed, scale) — the classic
	// scheme-comparison shape — regenerates nothing: the App is reused
	// and the memory image is replayed from the write journal.
	workloads map[workloadKey]*workloadMemo
	wlCost    int // total program ops pinned by the memo
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

// batchKeys returns the workload keys of a batch's specs.
func batchKeys(specs []Spec) map[workloadKey]bool {
	keys := make(map[workloadKey]bool, len(specs))
	for _, s := range specs {
		keys[keyOf(s)] = true
	}
	return keys
}

// prune drops every memoized workload whose key is not in keep, so a
// worker's memo holds images of the running batch only: a stream of
// batches with fresh seeds (a benchmark loop, suvd jobs) would otherwise
// pin dead images until the budget flushes them. A following batch that
// shares keys, as a sweep's next point does, still replays them.
func (a *machineArena) prune(keep map[workloadKey]bool) {
	//suv:orderinsensitive each entry is kept or dropped on its own key, and wlCost is a sum
	for key, rec := range a.workloads {
		if !keep[key] {
			a.wlCost -= rec.cost
			delete(a.workloads, key)
		}
	}
}

// workloadMemo is one cached generation: the immutable App (programs
// are read-only during simulation; Check closures read memory only
// after the run), the memory write journal, and the allocator span the
// generator consumed.
type workloadMemo struct {
	app   *workload.App
	log   *mem.WriteLog
	start sim.Addr // allocator cursor when generation began
	bytes uint64   // allocator bytes generation consumed
	cost  int      // total program ops (memo budget unit)
}

// workloadMemoBudget caps the program ops one worker's memo may pin,
// bounding its host-heap footprint (programs dominate the retained
// bytes). Overflow flushes the whole memo: the budget exists to bound
// memory, not to maximize hit rate, and whole-map flushes keep the
// policy deterministic.
const workloadMemoBudget = 3 << 20

// generate returns the App for key, either replaying a memoized image
// into the freshly reset memory/allocator or running gen (journaled)
// and memoizing the result.
func (a *machineArena) generate(key workloadKey, memory *mem.Memory, alloc *mem.Allocator, gen func() *workload.App) *workload.App {
	if rec, ok := a.workloads[key]; ok && alloc.Next() == rec.start {
		rec.log.Replay(memory)
		alloc.Alloc(rec.bytes, 1)
		fleetWorkloadReplays.Add(1)
		return rec.app
	}
	start := alloc.Next()
	memory.StartJournal()
	app := gen()
	log := memory.StopJournal()
	cost := 0
	for i := range app.Programs {
		cost += len(app.Programs[i].Ops)
	}
	if a.wlCost+cost > workloadMemoBudget {
		clear(a.workloads)
		a.wlCost = 0
	}
	if cost <= workloadMemoBudget {
		if a.workloads == nil {
			a.workloads = make(map[workloadKey]*workloadMemo)
		}
		a.workloads[key] = &workloadMemo{
			app:   app,
			log:   log,
			start: start,
			bytes: uint64(alloc.Next() - start),
			cost:  cost,
		}
		a.wlCost += cost
	}
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
	fleetCache       atomic.Pointer[runcache.Cache]
	fleetCacheRoot   sync.Mutex // guards the configured disk root below
	fleetCacheDir    string
	fleetVerifyEvery atomic.Int64 // 0 = off; N = re-simulate 1st and every Nth hit
	fleetHitSeq      atomic.Uint64
	fleetVerified    atomic.Uint64
	fleetArenaReuses atomic.Uint64

	fleetWorkloadReplays atomic.Uint64
)

func init() { fleetCache.Store(runcache.New()) }

// SetRunCacheDir attaches (dir != "") or detaches (dir == "") the
// on-disk cache tier for this process.
func SetRunCacheDir(dir string) error {
	if err := fleetCache.Load().SetDir(dir); err != nil {
		return err
	}
	fleetCacheRoot.Lock()
	fleetCacheDir = dir
	fleetCacheRoot.Unlock()
	return nil
}

// SetRunCacheVerify arms spot-check mode: the first and every Nth cache
// hit is re-simulated and compared bit-for-bit against the cached
// entry; a divergence fails the run. 0 disables.
func SetRunCacheVerify(everyN int) {
	fleetVerifyEvery.Store(int64(everyN))
	fleetHitSeq.Store(0)
}

// ResetRunCache drops the in-process cache tier and zeroes the fleet
// counters, keeping any configured disk tier attached (tests and
// benchmarks use it to return to a cold or disk-only state).
func ResetRunCache() error {
	c := runcache.New()
	fleetCacheRoot.Lock()
	dir := fleetCacheDir
	fleetCacheRoot.Unlock()
	if dir != "" {
		if err := c.SetDir(dir); err != nil {
			return err
		}
	}
	fleetCache.Store(c)
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
		Stats:       fleetCache.Load().Stats(),
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
	if !Cacheable(spec) {
		return false
	}
	key, err := fingerprintOf(spec)
	if err != nil {
		return false
	}
	return fleetCache.Load().Peek(key)
}

// fingerprintOf resolves spec exactly as runSpec does — defaults
// applied, progress ladder armed for fault runs, Spec.Tweak applied to
// the Table III config — and digests the canonical encoding. Tweak
// closures must therefore be deterministic functions of the config
// alone (every sweep/ablation tweak is).
func fingerprintOf(spec Spec) (runcache.Key, error) {
	cores, seed, scale := spec.resolved()
	plan := spec.Faults
	if plan == nil && spec.FaultPlan != "" {
		fseed := spec.FaultSeed
		if fseed == 0 {
			fseed = 1
		}
		var err error
		plan, err = faults.Builtin(spec.FaultPlan, fseed, cores)
		if err != nil {
			return runcache.Key{}, err
		}
	}
	cfg := htm.DefaultConfig(cores)
	cfg.Seed = seed
	if plan != nil {
		cfg = cfg.WithProgressLadder()
	}
	if spec.Tweak != nil {
		spec.Tweak(&cfg)
	}
	var planText string
	if plan != nil {
		var err error
		planText, err = faults.EncodeString(plan)
		if err != nil {
			return runcache.Key{}, err
		}
	}
	return runcache.KeyOf(spec.App, string(spec.Scheme), cores, seed, scale, cfg, planText), nil
}

// runCachedSpec is runSpec behind the cache: bypass impure specs, serve
// hits (spot-checking when armed), run concurrent misses on one
// fingerprint once, and store successful invariant-clean outcomes.
func runCachedSpec(spec Spec, arena *machineArena, o BatchOptions) (*Outcome, error) {
	if o.NoCache {
		return runSpec(spec, arena)
	}
	c := fleetCache.Load()
	if !Cacheable(spec) {
		c.Bypass()
		return runSpec(spec, arena)
	}
	key, err := fingerprintOf(spec)
	if err != nil {
		// Fingerprinting failed (unresolvable spec); let the live path
		// produce the authoritative error.
		return runSpec(spec, arena)
	}
	e, ok := c.Get(key)
	if !ok {
		var out *Outcome
		if e, out, err = runMiss(c, key, spec, arena); e == nil {
			return out, err
		}
	}
	if every := fleetVerifyEvery.Load(); every > 0 {
		if n := fleetHitSeq.Add(1); (n-1)%uint64(every) == 0 {
			fresh, ferr := runSpec(spec, arena)
			if ferr != nil {
				return fresh, fmt.Errorf("runcache verify: live re-run failed: %w", ferr)
			}
			if !e.Equal(entryOf(fresh)) {
				return fresh, fmt.Errorf("runcache verify: cached outcome for %s under %s diverges from a live re-run (stale or corrupted cache dir?)", spec.App, spec.Scheme)
			}
			fleetVerified.Add(1)
		}
	}
	return outcomeFromEntry(spec, e), nil
}

// Cache misses in flight, by fingerprint: the channel closes when the
// leading run has finished and stored whatever it will store.
var (
	flightsMu sync.Mutex
	flights   = make(map[runcache.Key]chan struct{})
)

// runMiss handles a cache miss on key. The first miss on a fingerprint
// leads: it runs the spec and stores a successful, invariant-clean
// outcome. A concurrent miss on the same fingerprint waits for the
// leader and is then served the stored entry as a hit; when the leader
// stored nothing (an error or a failed check), it runs the spec itself.
// A non-nil entry means the miss was served from the cache.
func runMiss(c *runcache.Cache, key runcache.Key, spec Spec, arena *machineArena) (*runcache.Entry, *Outcome, error) {
	flightsMu.Lock()
	f, follow := flights[key]
	if !follow {
		f = make(chan struct{})
		flights[key] = f
	}
	flightsMu.Unlock()
	if follow {
		<-f
	} else {
		defer func() {
			flightsMu.Lock()
			delete(flights, key)
			flightsMu.Unlock()
			close(f)
		}()
	}
	// For a leader, this catches a flight that landed between its miss
	// and its join.
	if e, ok := c.Coalesced(key); ok {
		return e, nil, nil
	}
	out, err := runSpec(spec, arena)
	if err == nil && out.CheckErr == nil {
		// A disk-write failure degrades the cache, not the run: the
		// entry still serves from memory, so the error is dropped.
		_ = c.Put(key, entryOf(out))
	}
	return nil, out, err
}

// entryOf extracts the cacheable portion of a successful outcome.
func entryOf(out *Outcome) *runcache.Entry {
	if out == nil || out.Result == nil {
		return nil
	}
	return &runcache.Entry{
		Cycles:     out.Cycles,
		Breakdown:  out.Breakdown,
		PerCore:    append([]stats.Breakdown(nil), out.PerCore...),
		Counters:   out.Counters,
		PoolPages:  out.PoolPages,
		RedirectEn: out.RedirectEn,
	}
}

// outcomeFromEntry reconstitutes a cache-served Outcome. AppMeta stays
// nil (no generator ran) and CheckErr nil (only invariant-clean runs
// are ever stored).
func outcomeFromEntry(spec Spec, e *runcache.Entry) *Outcome {
	return &Outcome{
		Spec: spec,
		Result: &htm.Result{
			Cycles:    e.Cycles,
			Breakdown: e.Breakdown,
			PerCore:   append([]stats.Breakdown(nil), e.PerCore...),
			Counters:  e.Counters,
		},
		PoolPages:  e.PoolPages,
		RedirectEn: e.RedirectEn,
	}
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
// the batch. The sort is stable, keeping submission order among equals
// — a batch of identical specs (chaos replays) executes unchanged.
func dispatchOrder(specs []Spec, o BatchOptions) []int {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	if o.NoSchedule || len(specs) < 2 {
		return order
	}
	cost := make([]float64, len(specs))
	for i := range specs {
		cost[i] = expectedCost(specs[i])
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cost[order[a]] > cost[order[b]]
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
