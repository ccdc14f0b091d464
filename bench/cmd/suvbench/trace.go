package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"suvtm/internal/experiments"
	"suvtm/internal/forensics"
	"suvtm/internal/htm"
	"suvtm/internal/mem"
	"suvtm/internal/metrics"
	"suvtm/internal/sim"
	"suvtm/internal/trace"
)

// callKind is a VersionManager entry point the decorator times.
type callKind int

const (
	callBegin callKind = iota
	callTranslate
	callLoad
	callStore
	callCommit // CommitOuter, CommitNested and CommitOpen
	callAbort
	numCalls
)

var callNames = [numCalls]string{"begin", "translate", "load", "store", "commit", "abort"}

// timedVM is a delegating VersionManager that counts every scheme call
// the machine makes, except the uncounted Name, Init, Mode and
// OnSpecEviction, and times a random sixteenth of them: two clock reads
// on each of a grid run's million calls would add about as much time as
// the calls themselves take. It only observes: the traced pass checks
// that every run through it has the digest of the same run without it.
type timedVM struct {
	htm.VersionManager
	calls   [numCalls]uint64
	sampled [numCalls]uint64
	ns      [numCalls]int64 // time in the sampled calls
	rng     uint64
}

func newTimedVM(vm htm.VersionManager) *timedVM {
	return &timedVM{VersionManager: vm, rng: 0x9e3779b97f4a7c15}
}

// sample counts a call of kind k and reports whether to time it.
func (v *timedVM) sample(k callKind) bool {
	v.calls[k]++
	v.rng ^= v.rng << 13
	v.rng ^= v.rng >> 7
	v.rng ^= v.rng << 17
	return v.rng&15 == 0
}

func (v *timedVM) timed(k callKind, t0 time.Time) {
	v.sampled[k]++
	v.ns[k] += int64(time.Since(t0))
}

// estNs estimates the total time in calls of kind k from the sample,
// less the clock's own share of each sampled interval.
func (v *timedVM) estNs(k callKind) int64 {
	if v.sampled[k] == 0 {
		return 0
	}
	own := max(0, v.ns[k]-int64(v.sampled[k])*clockCost)
	return int64(float64(own) * float64(v.calls[k]) / float64(v.sampled[k]))
}

// clockCost is the median time an empty timed interval reads.
var clockCost = func() int64 {
	xs := make([]float64, 1001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return int64(median(xs))
}()

func (v *timedVM) Begin(m *htm.Machine, c *htm.Core) sim.Cycles {
	if !v.sample(callBegin) {
		return v.VersionManager.Begin(m, c)
	}
	defer v.timed(callBegin, time.Now())
	return v.VersionManager.Begin(m, c)
}

func (v *timedVM) Translate(m *htm.Machine, c *htm.Core, line sim.Line, write bool) (sim.Line, sim.Cycles) {
	if !v.sample(callTranslate) {
		return v.VersionManager.Translate(m, c, line, write)
	}
	defer v.timed(callTranslate, time.Now())
	return v.VersionManager.Translate(m, c, line, write)
}

func (v *timedVM) Load(m *htm.Machine, c *htm.Core, addr, targetAddr sim.Addr) (sim.Word, sim.Cycles) {
	if !v.sample(callLoad) {
		return v.VersionManager.Load(m, c, addr, targetAddr)
	}
	defer v.timed(callLoad, time.Now())
	return v.VersionManager.Load(m, c, addr, targetAddr)
}

func (v *timedVM) Store(m *htm.Machine, c *htm.Core, addr sim.Addr, val sim.Word) (sim.Line, sim.Cycles) {
	if !v.sample(callStore) {
		return v.VersionManager.Store(m, c, addr, val)
	}
	defer v.timed(callStore, time.Now())
	return v.VersionManager.Store(m, c, addr, val)
}

func (v *timedVM) CommitOuter(m *htm.Machine, c *htm.Core) sim.Cycles {
	if !v.sample(callCommit) {
		return v.VersionManager.CommitOuter(m, c)
	}
	defer v.timed(callCommit, time.Now())
	return v.VersionManager.CommitOuter(m, c)
}

func (v *timedVM) CommitNested(m *htm.Machine, c *htm.Core) sim.Cycles {
	if !v.sample(callCommit) {
		return v.VersionManager.CommitNested(m, c)
	}
	defer v.timed(callCommit, time.Now())
	return v.VersionManager.CommitNested(m, c)
}

func (v *timedVM) CommitOpen(m *htm.Machine, c *htm.Core) sim.Cycles {
	if !v.sample(callCommit) {
		return v.VersionManager.CommitOpen(m, c)
	}
	defer v.timed(callCommit, time.Now())
	return v.VersionManager.CommitOpen(m, c)
}

func (v *timedVM) Abort(m *htm.Machine, c *htm.Core) sim.Cycles {
	if !v.sample(callAbort) {
		return v.VersionManager.Abort(m, c)
	}
	defer v.timed(callAbort, time.Now())
	return v.VersionManager.Abort(m, c)
}

// span is one timed interval of the traced pass. Spans of one op share
// Op; an op span has Parent 0. Scheme calls are folded into one span per
// (run, call kind) whose End-Start is their total time and Count their
// number, because one span per call would be millions of objects.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  uint64 `json:"count,omitempty"`
}

// maxSpans bounds the spans kept in memory: grid-warm runs thousands of
// sub-millisecond ops. Spans past it are counted, not kept.
const maxSpans = 100_000

// spanLog keeps the traced pass's spans in memory until the run ends.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	lastID  int
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// open starts a span; close ends and keeps it.
func (l *spanLog) open(name string, parent, op int) span {
	l.mu.Lock()
	l.lastID++
	id := l.lastID
	l.mu.Unlock()
	return span{ID: id, Parent: parent, Op: op, Name: name, Start: l.now()}
}

func (l *spanLog) close(s span) time.Duration {
	s.End = l.now()
	l.keep(s)
	return time.Duration(s.End - s.Start)
}

func (l *spanLog) keep(s span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.ID == 0 {
		l.lastID++
		s.ID = l.lastID
	}
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
}

// write saves the spans as JSON at path.
func (l *spanLog) write(path, workloadName string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workloadName, seed, l.dropped, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// schemeKeys lists the paper's five schemes, with the name each has in
// the per-layer metric names.
var schemeKeys = []struct {
	scheme experiments.Scheme
	key    string
}{
	{experiments.LogTMSE, "logtmse"},
	{experiments.FasTM, "fastm"},
	{experiments.SUVTM, "suvtm"},
	{experiments.DynTM, "dyntm"},
	{experiments.DynTMSUV, "dyntmsuv"},
}

// layers accumulates the traced pass's per-layer totals. Host times
// cover every traced op; the modelled counts cover only the pinned ops,
// so that they repeat exactly from run to run.
type layers struct {
	mu sync.Mutex

	sims                         int
	genNs, newNs, runNs, checkNs int64
	programOps                   uint64
	accesses                     uint64 // L1 hits + misses
	calls                        [numCalls]uint64
	callNs                       [numCalls]int64
	schemeNs                     map[experiments.Scheme]int64
	schemeSims                   map[experiments.Scheme]int

	model modelCounts

	observed     int
	exportNs     int64
	exportBytes  int64
	chromeEvents int

	batchRuns             int
	batches               int
	replays, arenaReuses  uint64
	tailNs                int64
	cacheHits, cacheTotal uint64

	refMs, tracedMs []float64
}

// modelCounts are simulated quantities: deterministic for a given spec,
// so a change that only speeds the simulator up leaves them unchanged.
type modelCounts struct {
	sims                                  int
	calls                                 [numCalls]uint64
	cycles, txStarted, txCommitted, nacks uint64
	l1Hits, l1Misses, l2Hits, l2Misses    uint64
	gets, getm                            uint64
	redirLookups, redirL1Hits             uint64
	summaryFiltered, falsePositives       uint64
}

func (mc *modelCounts) add(vm *timedVM, res *htm.Result, m *htm.Machine) {
	dir := m.Dir.Stats()
	c := &res.Counters
	mc.sims++
	for k := range mc.calls {
		mc.calls[k] += vm.calls[k]
	}
	mc.cycles += uint64(res.Cycles)
	mc.txStarted += c.TxStarted
	mc.txCommitted += c.TxCommitted
	mc.nacks += c.NACKsReceived
	mc.l1Hits += c.L1Hits
	mc.l1Misses += c.L1Misses
	mc.l2Hits += c.L2Hits
	mc.l2Misses += c.L2Misses
	mc.gets += dir.GETS.Value()
	mc.getm += dir.GETM.Value()
	mc.redirLookups += c.RedirectLookups
	mc.redirL1Hits += c.RedirectL1Hits
	mc.summaryFiltered += c.SummaryFiltered
	mc.falsePositives += c.FalsePositive
}

// runTotals is what one layered run adds to layers.
type runTotals struct {
	scheme                       experiments.Scheme
	genNs, newNs, runNs, checkNs int64
	programOps                   uint64
	vm                           *timedVM
	exportNs, exportBytes        int64
	chromeEvents                 int
	observed                     bool
}

func (l *layers) addRun(t *runTotals, res *htm.Result, m *htm.Machine, pinned bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sims++
	l.genNs += t.genNs
	l.newNs += t.newNs
	l.runNs += t.runNs
	l.checkNs += t.checkNs
	l.programOps += t.programOps
	l.accesses += res.Counters.L1Hits + res.Counters.L1Misses
	var schemeNs int64
	for k := range l.calls {
		l.calls[k] += t.vm.calls[k]
		l.callNs[k] += t.vm.estNs(callKind(k))
		schemeNs += t.vm.estNs(callKind(k))
	}
	if l.schemeNs == nil {
		l.schemeNs = make(map[experiments.Scheme]int64)
		l.schemeSims = make(map[experiments.Scheme]int)
	}
	l.schemeNs[t.scheme] += schemeNs
	l.schemeSims[t.scheme]++
	if pinned {
		l.model.add(t.vm, res, m)
	}
	if t.observed {
		l.observed++
		l.exportNs += t.exportNs
		l.exportBytes += t.exportBytes
		l.chromeEvents += t.chromeEvents
	}
}

// addBatch records one progress-armed fleet batch: its run count, the
// fleet counters it moved and its tail.
func (l *layers) addBatch(runs int, before, after experiments.FleetStats, tailNs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches++
	l.batchRuns += runs
	l.replays += after.WorkloadReplays - before.WorkloadReplays
	l.arenaReuses += after.ArenaReuses - before.ArenaReuses
	l.tailNs += tailNs
	hits := after.Hits - before.Hits
	l.cacheHits += hits
	l.cacheTotal += hits + (after.Misses - before.Misses) + (after.Bypasses - before.Bypasses)
}

// addOp records the durations of one traced op's reference and
// instrumented forms.
func (l *layers) addOp(ref, traced time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refMs = append(l.refMs, float64(ref)/1e6)
	l.tracedMs = append(l.tracedMs, float64(traced)/1e6)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics derives every per-layer metric as a per-simulation mean (per
// batch for the fleet tail, per observed simulation for the exporters).
func (l *layers) metrics() map[string]metricValue {
	l.mu.Lock()
	defer l.mu.Unlock()
	sims := float64(l.sims)
	ms := func(ns int64, n float64) float64 { return ratio(float64(ns)/1e6, n) }
	mc := &l.model
	msims := float64(mc.sims)
	perSim := func(v uint64) metricValue { return metricValue{ratio(float64(v), msims), "count", mc.sims} }
	share := func(num, den uint64) metricValue {
		return metricValue{ratio(float64(num), float64(den)), "ratio", mc.sims}
	}
	overhead := 0.0
	if len(l.refMs) > 0 {
		overhead = median(l.tracedMs)/median(l.refMs) - 1
	}
	out := map[string]metricValue{
		"workload.gen_ms":       {ms(l.genNs, sims), "ms", l.sims},
		"workload.program_kops": {ratio(float64(l.programOps)/1e3, sims), "kops", l.sims},
		"workload.check_ms":     {ms(l.checkNs, sims), "ms", l.sims},

		"fleet.memo_replay_ratio": {ratio(float64(l.replays), float64(l.batchRuns)), "ratio", l.batchRuns},
		"fleet.arena_reuse_ratio": {ratio(float64(l.arenaReuses), float64(l.batchRuns)), "ratio", l.batchRuns},
		"fleet.tail_ms":           {ms(l.tailNs, float64(l.batches)), "ms", l.batches},
		"runcache.hit_ratio":      {ratio(float64(l.cacheHits), float64(l.cacheTotal)), "ratio", int(l.cacheTotal)},

		"htm.new_ms":            {ms(l.newNs, sims), "ms", l.sims},
		"htm.run_ms":            {ms(l.runNs, sims), "ms", l.sims},
		"htm.run_ns_per_access": {ratio(float64(l.runNs), float64(l.accesses)), "ns", l.sims},

		"htm.sim_kcycles":            {ratio(float64(mc.cycles)/1e3, msims), "kcycles", mc.sims},
		"htm.tx_started":             perSim(mc.txStarted),
		"htm.commit_ratio":           share(mc.txCommitted, mc.txStarted),
		"htm.nacks":                  perSim(mc.nacks),
		"mem.l1.accesses":            perSim(mc.l1Hits + mc.l1Misses),
		"mem.l1.hit_ratio":           share(mc.l1Hits, mc.l1Hits+mc.l1Misses),
		"mem.l2.accesses":            perSim(mc.l2Hits + mc.l2Misses),
		"mem.l2.hit_ratio":           share(mc.l2Hits, mc.l2Hits+mc.l2Misses),
		"coherence.gets":             perSim(mc.gets),
		"coherence.getm":             perSim(mc.getm),
		"redirect.lookups":           perSim(mc.redirLookups),
		"redirect.l1_hit_ratio":      share(mc.redirL1Hits, mc.redirLookups),
		"signature.summary_filtered": perSim(mc.summaryFiltered),
		"signature.false_positives":  perSim(mc.falsePositives),

		"observe.export_ms":     {ms(l.exportNs, float64(l.observed)), "ms", l.observed},
		"observe.export_kb":     {ratio(float64(l.exportBytes)/1e3, float64(l.observed)), "KB", l.observed},
		"observe.chrome_events": {ratio(float64(l.chromeEvents), float64(l.observed)), "count", l.observed},

		"trace.overhead_frac": {overhead, "ratio", len(l.tracedMs)},
	}
	var schemeNs int64
	for k, name := range callNames {
		schemeNs += l.callNs[k]
		out["scheme."+name+".calls"] = perSim(mc.calls[k])
		out["scheme."+name+".ns_per_call"] = metricValue{ratio(float64(l.callNs[k]), float64(l.calls[k])), "ns", l.sims}
	}
	out["htm.self_ms"] = metricValue{ms(l.runNs-schemeNs, sims), "ms", l.sims}
	for _, s := range schemeKeys {
		n := l.schemeSims[s.scheme]
		out["scheme."+s.key+".ms"] = metricValue{ms(l.schemeNs[s.scheme], float64(n)), "ms", n}
	}
	return out
}

// Heap geometry of experiments.Run's machines: a layered run must hand
// the generator the same address space to reproduce its digest.
const (
	heapBase = 0x10_0000
	heapSize = 1 << 33
)

// arena is one layered-batch worker's reusable machine state, kept the
// way the fleet's per-worker arena keeps it. A nil arena builds every
// machine cold, as experiments.Run does.
type arena struct {
	memory *mem.Memory
	alloc  *mem.Allocator
	pre    htm.Prebuilt
}

func (a *arena) take() (*mem.Memory, *mem.Allocator, htm.Prebuilt) {
	if a == nil {
		return mem.NewMemory(), mem.NewAllocator(heapBase, heapSize), htm.Prebuilt{}
	}
	if a.memory == nil {
		a.memory = mem.NewMemory()
		a.alloc = mem.NewAllocator(heapBase, heapSize)
	} else {
		a.memory.Reset()
		a.alloc.Reset(heapBase, heapSize)
	}
	return a.memory, a.alloc, a.pre
}

func (a *arena) keep(m *htm.Machine) {
	if a == nil {
		return
	}
	l1s := a.pre.L1s[:0]
	for _, c := range m.Cores {
		l1s = append(l1s, c.L1)
	}
	a.pre = htm.Prebuilt{Dir: m.Dir, Redirect: m.Redirect, L2: m.L2, L1s: l1s, Par: m.ParArena()}
}

// observers are the outputs runSpec attaches for a spec's observability
// fields, attached here the same way so a layered run exports the same
// files.
type observers struct {
	rec    *trace.Recorder
	col    *metrics.Collector
	chrome *metrics.ChromeTrace
	fx     *forensics.Collector
}

func attachObservers(m *htm.Machine, spec experiments.Spec, cores int) observers {
	var o observers
	if spec.TraceEvents > 0 {
		o.rec = trace.NewRecorder(spec.TraceEvents)
		m.SetTracer(o.rec)
	}
	if spec.Metrics || spec.SampleInterval > 0 || spec.ChromeTrace {
		o.col = metrics.NewCollector(spec.SampleInterval)
		if spec.ChromeTrace {
			o.chrome = metrics.NewChromeTrace()
			o.col.AttachChromeTrace(o.chrome)
			if o.rec == nil {
				o.rec = trace.NewRecorder(1)
				m.SetTracer(o.rec)
			}
			o.rec.Stream(o.chrome)
		}
		m.EnableMetrics(o.col)
	}
	if spec.Forensics {
		o.fx = forensics.NewCollector(cores)
		m.EnableForensics(o.fx)
	}
	return o
}

func (o observers) fill(out *experiments.Outcome, cores int, seed uint64) {
	spec := out.Spec
	out.Chrome = o.chrome
	if spec.TraceEvents > 0 {
		out.Trace = o.rec
	}
	if o.fx != nil {
		rep := o.fx.Report(spec.ForensicsTopK)
		rep.App, rep.Scheme, rep.Seed = spec.App, string(spec.Scheme), seed
		out.Forensics = rep
	}
	if o.col != nil {
		snap := o.col.Snapshot()
		snap.Meta["app"] = spec.App
		snap.Meta["scheme"] = string(spec.Scheme)
		snap.Meta["cores"] = fmt.Sprint(cores)
		snap.Meta["seed"] = fmt.Sprint(seed)
		if out.Result != nil {
			snap.Meta["cycles"] = fmt.Sprint(out.Cycles)
		}
		out.Metrics = snap
		if spec.SampleInterval > 0 {
			out.Series = o.col.Series()
		}
	}
}
