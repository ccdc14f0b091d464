// Package suvtm is a library-level reproduction of "SUV: A Novel
// Single-Update Version-Management Scheme for Hardware Transactional
// Memory Systems" (Yan, Jiang, Feng, Tian, Tan — IPDPS Workshops 2012).
//
// It bundles an execution-driven, cycle-approximate 16-core CMP
// simulator (MESI directory coherence over a 4x4 mesh, 32KB/8MB cache
// hierarchy — Table III of the paper), four hardware-transactional-
// memory version-management schemes (LogTM-SE, FasTM, SUV-TM, DynTM with
// and without SUV), eight STAMP-analogue transactional workloads, and
// the experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// # Quick start
//
//	res, err := suvtm.Run(suvtm.Spec{App: "intruder", Scheme: suvtm.SUVTM})
//	if err != nil { ... }
//	fmt.Println(res.Cycles, res.Breakdown.String())
//
// Custom workloads are assembled with a Builder and executed on a
// Machine directly; see examples/bank.
package suvtm

import (
	"io"

	"suvtm/internal/cactimodel"
	"suvtm/internal/experiments"
	"suvtm/internal/faults"
	"suvtm/internal/forensics"
	"suvtm/internal/htm"
	"suvtm/internal/mem"
	"suvtm/internal/metrics"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
	"suvtm/internal/trace"
	"suvtm/internal/workload"
)

// Scheme identifies a version-management scheme.
type Scheme = experiments.Scheme

// The schemes the paper evaluates.
const (
	// LogTMSE is the eager undo-log baseline (Yen et al., HPCA 2007).
	LogTMSE = experiments.LogTMSE
	// FasTM keeps speculative values in the L1 for fast aborts
	// (Lupon et al., PACT 2009).
	FasTM = experiments.FasTM
	// SUVTM is the paper's single-update redirect scheme.
	SUVTM = experiments.SUVTM
	// DynTM is the adaptive eager/lazy design (Lupon et al., MICRO 2010).
	DynTM = experiments.DynTM
	// DynTMSUV is DynTM with SUV as its version manager (the paper's D+S).
	DynTMSUV = experiments.DynTMSUV
)

// Spec describes one simulation run; see experiments.Spec.
type Spec = experiments.Spec

// Outcome is a completed run; see experiments.Outcome.
type Outcome = experiments.Outcome

// Options parameterize a multi-run experiment.
type Options = experiments.Options

// Run executes one application under one scheme on the simulated CMP.
func Run(spec Spec) (*Outcome, error) { return experiments.Run(spec) }

// RunMany executes specs concurrently on a worker pool with the default
// fleet options: per-worker machine arenas, the content-addressed run
// cache for pure specs, and longest-expected-first dispatch. The first
// simulation error stops further dispatch; already-computed outcomes are
// returned alongside the error. Pure specs' outcomes share a read-only
// Result with the cache.
func RunMany(specs []Spec) ([]*Outcome, error) { return experiments.RunMany(specs) }

// Fleet-throughput layer: batches share per-worker machine arenas, pure
// runs are memoized in a content-addressed cache (optionally persisted
// on disk and spot-checked against live re-runs), and dispatch is
// longest-expected-first so stragglers start early.
type (
	// BatchOptions tune one batch (worker count, cache opt-out,
	// keep-going error handling, cancellation, progress streaming).
	BatchOptions = experiments.BatchOptions
	// FleetStats are the process-wide cache/arena/scheduler counters.
	FleetStats = experiments.FleetStats
	// FleetProgress is one deterministic, count-based progress snapshot
	// streamed to BatchOptions.OnProgress while a batch runs.
	FleetProgress = experiments.FleetProgress
	// SchemeProgress is one scheme's running totals within a snapshot.
	SchemeProgress = experiments.SchemeProgress
)

// RunManyWith is RunMany with explicit batch options. Outcomes of pure
// specs share their Result with the run cache (see RunCached).
func RunManyWith(specs []Spec, o BatchOptions) ([]*Outcome, error) {
	return experiments.RunManyWith(specs, o)
}

// RunCached executes one spec through the run cache: a repeated pure
// spec is served from memory (or the on-disk tier) instead of being
// re-simulated. Specs requesting metrics, traces or fault injection
// bypass the cache. A cache-served outcome's Result is shared with the
// cache and every other outcome of that spec: treat it as read-only.
func RunCached(spec Spec) (*Outcome, error) { return experiments.RunCached(spec) }

// SetRunCacheDir attaches a persistent on-disk tier (entries live under
// dir/v<version>/); the empty string detaches it.
func SetRunCacheDir(dir string) error { return experiments.SetRunCacheDir(dir) }

// SetRunCacheVerify arms spot-check mode: the first and every Nth cache
// hit is re-simulated and compared; divergence fails the run. 0 disables.
func SetRunCacheVerify(everyN int) { experiments.SetRunCacheVerify(everyN) }

// ResetRunCache drops the in-memory tier and zeroes the fleet counters
// (the on-disk tier, if configured, is kept).
func ResetRunCache() error { return experiments.ResetRunCache() }

// FleetSnapshot returns the current fleet counters.
func FleetSnapshot() FleetStats { return experiments.FleetSnapshot() }

// Experiment entry points, one per table/figure of the paper.
var (
	// RunFig6 reproduces Figure 6 (LogTM-SE vs FasTM vs SUV-TM).
	RunFig6 = experiments.RunFig6
	// RunFig9 reproduces Figure 9 (DynTM vs DynTM+SUV).
	RunFig9 = experiments.RunFig9
	// RunFig7 sweeps the first-level redirect-table size.
	RunFig7 = experiments.RunFig7
	// RunFig8Size sweeps the second-level table size.
	RunFig8Size = experiments.RunFig8Size
	// RunFig8Latency sweeps the second-level table latency.
	RunFig8Latency = experiments.RunFig8Latency
	// RunTable1 measures abort ratios (Table I companion).
	RunTable1 = experiments.RunTable1
	// RunTable5 measures overflow statistics (Table V).
	RunTable5 = experiments.RunTable5
)

// Workload construction: programs are register-machine traces delimited
// by Begin/Commit, built with a Builder and run on a Machine.
type (
	// Builder assembles a per-core Program.
	Builder = workload.Builder
	// Program is one core's instruction stream.
	Program = workload.Program
	// App is a generated application with invariants.
	App = workload.App
	// GenConfig parameterizes workload generators.
	GenConfig = workload.GenConfig
	// Region is a run of cache lines backing a shared structure.
	Region = workload.Region
)

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return workload.NewBuilder() }

// StampApps lists the eight STAMP-analogue applications.
func StampApps() []string { return append([]string(nil), workload.StampApps...) }

// Apps lists every registered workload generator.
func Apps() []string { return workload.Names() }

// Machine-level access for custom simulations.
type (
	// MachineConfig carries the Table III CMP parameters.
	MachineConfig = htm.Config
	// Machine is one simulated CMP.
	Machine = htm.Machine
	// MachineResult aggregates a run.
	MachineResult = htm.Result
	// VersionManager is the scheme plug-in interface.
	VersionManager = htm.VersionManager
	// Breakdown is the per-component cycle attribution of Figure 6.
	Breakdown = stats.Breakdown
	// Counters are the event counters of a run.
	Counters = stats.Counters
	// Memory is the value-accurate simulated memory.
	Memory = mem.Memory
	// Allocator lays out the simulated address space.
	Allocator = mem.Allocator
	// Cycles counts simulated clock cycles.
	Cycles = sim.Cycles
)

// Component is one slice of the execution-time breakdown (Figure 6).
type Component = stats.Component

// The breakdown components, in the paper's order.
const (
	NoTrans    = stats.NoTrans
	Trans      = stats.Trans
	Barrier    = stats.Barrier
	Backoff    = stats.Backoff
	Stalled    = stats.Stalled
	Wasted     = stats.Wasted
	Aborting   = stats.Aborting
	Committing = stats.Committing
)

// DefaultConfig returns the paper's Table III configuration.
func DefaultConfig(cores int) MachineConfig { return htm.DefaultConfig(cores) }

// NewVM constructs a version manager for a scheme.
func NewVM(s Scheme) (VersionManager, error) { return experiments.NewVM(s) }

// NewMachine builds a simulated CMP executing one program per core.
func NewMachine(cfg MachineConfig, vm VersionManager, programs []Program, memory *Memory, alloc *Allocator) *Machine {
	return htm.New(cfg, vm, programs, memory, alloc)
}

// NewMemory returns an empty simulated memory image.
func NewMemory() *Memory { return mem.NewMemory() }

// NewAllocator returns a bump allocator over [base, base+size).
func NewAllocator(base uint64, size uint64) *Allocator { return mem.NewAllocator(base, size) }

// NewRegion allocates a region of n cache lines.
func NewRegion(alloc *Allocator, n int) Region { return workload.NewRegion(alloc, n) }

// Observability: the metrics layer samples a run into a time series,
// summarizes it as a JSON snapshot, and exports transaction lifecycles
// as a Chrome trace (Perfetto / chrome://tracing). Enable per run via
// Spec.SampleInterval / Spec.Metrics / Spec.ChromeTrace, or attach a
// collector to a Machine directly with Machine.EnableMetrics.
type (
	// MetricsCollector gathers counters, gauges, histograms and the
	// interval-sampled time series of one run.
	MetricsCollector = metrics.Collector
	// MetricsSnapshot is the end-of-run state of every instrument.
	MetricsSnapshot = metrics.Snapshot
	// MetricsSeries is the interval-sampled time series (CSV-exportable).
	MetricsSeries = metrics.Series
	// MetricsHistogram is a log₂-bucketed histogram.
	MetricsHistogram = metrics.Histogram
	// ChromeTrace accumulates Chrome trace-event JSON.
	ChromeTrace = metrics.ChromeTrace
	// TraceRecorder is the bounded lifecycle-event ring buffer.
	TraceRecorder = trace.Recorder
)

// NewMetricsCollector returns a collector sampling every interval cycles
// (0 disables the time series; snapshot and histograms still work).
func NewMetricsCollector(interval Cycles) *MetricsCollector {
	return metrics.NewCollector(interval)
}

// NewChromeTrace returns an empty Chrome trace-event builder; stream a
// machine's lifecycle events into it with NewTraceRecorder(n).Stream(ct).
func NewChromeTrace() *ChromeTrace { return metrics.NewChromeTrace() }

// NewTraceRecorder returns a lifecycle-event recorder keeping the last
// capacity events.
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// Conflict forensics: the provenance layer classifies every NACK and
// remote kill as true sharing vs signature false positive (the holder's
// precise read/write sets are the oracle), builds the abort-causality
// graph (killer→victim edges, cascades, friendly fire) and renders
// cycle-loss profiles as folded stacks. Enable per run via
// Spec.Forensics, or attach a collector directly with
// Machine.EnableForensics; compare schemes with RunForensics.
type (
	// ForensicsCollector gathers conflict provenance during a run.
	ForensicsCollector = forensics.Collector
	// ForensicsReport is the end-of-run conflict report (JSON- and
	// folded-stack-exportable).
	ForensicsReport = forensics.Report
	// ForensicsOptions tunes a RunForensics comparison.
	ForensicsOptions = experiments.ForensicsOptions
	// ForensicsCompare holds one app's reports across schemes.
	ForensicsCompare = experiments.ForensicsCompare
)

// NewForensicsCollector returns an empty conflict-provenance collector
// for a machine with the given core count.
func NewForensicsCollector(cores int) *ForensicsCollector {
	return forensics.NewCollector(cores)
}

// RunForensics runs one app under each scheme (default: all five) with
// conflict forensics attached and returns the per-scheme reports.
func RunForensics(app string, schemes []Scheme, opt ForensicsOptions) (*ForensicsCompare, error) {
	return experiments.RunForensics(app, schemes, opt)
}

// Robustness: the deterministic chaos layer injects seeded, replayable
// fault plans (NACK storms, mesh delay/duplication, signature
// saturation, redirect pressure, pool exhaustion) into a run, armed
// alongside the forward-progress escalation ladder. Enable per run via
// Spec.FaultPlan/FaultSeed (or Spec.Faults for an exact decoded plan),
// or sweep every scheme x plan x seed with RunChaos.
type (
	// FaultPlan is a named, ordered schedule of fault windows.
	FaultPlan = faults.Plan
	// FaultEvent is one fault window of a plan.
	FaultEvent = faults.Event
	// FaultKind classifies a fault window.
	FaultKind = faults.Kind
	// FaultInjector drives a plan through one run.
	FaultInjector = faults.Injector
	// ChaosOptions configures a chaos sweep.
	ChaosOptions = experiments.ChaosOptions
	// Chaos is a completed sweep (Verify checks its acceptance gates).
	Chaos = experiments.Chaos
	// WatchdogError reports a tripped cycle watchdog with per-core
	// diagnostic snapshots (match with errors.As).
	WatchdogError = htm.WatchdogError
	// DeadlockError reports a drained event queue with unfinished cores.
	DeadlockError = htm.DeadlockError
	// InvariantError reports a periodic invariant-checker violation.
	InvariantError = htm.InvariantError
)

// Typed failure classes for errors.Is.
var (
	// ErrWatchdog matches any watchdog trip.
	ErrWatchdog = htm.ErrWatchdog
	// ErrDeadlock matches any deadlock detection.
	ErrDeadlock = htm.ErrDeadlock
)

// FaultPlanNames lists the built-in chaos plan generators.
func FaultPlanNames() []string { return faults.BuiltinNames() }

// BuildFaultPlan derives a built-in plan deterministically from a seed.
func BuildFaultPlan(name string, seed uint64, cores int) (*FaultPlan, error) {
	return faults.Builtin(name, seed, cores)
}

// DecodeFaultPlan parses a plan from its line-oriented text format.
func DecodeFaultPlan(r io.Reader) (*FaultPlan, error) { return faults.Decode(r) }

// EncodeFaultPlan writes a plan in the text format (golden corpora).
func EncodeFaultPlan(w io.Writer, p *FaultPlan) error { return faults.Encode(w, p) }

// RunChaos sweeps schemes x fault plans x seeds, optionally running every
// cell twice to prove bit-identical replay.
func RunChaos(opts ChaosOptions) (*Chaos, error) { return experiments.RunChaos(opts) }

// Hardware-cost model (Tables VI/VII and Section V-C).
type (
	// HWEstimate is a CACTI-style estimate of a fully-associative table.
	HWEstimate = cactimodel.Estimate
	// HWCost aggregates the Section V-C per-core and chip overheads.
	HWCost = cactimodel.SUVCost
)

// EstimateTable models a fully-associative redirect table at a
// technology node (90/65/45/32 nm).
func EstimateTable(nm, entries, entryBits int) (HWEstimate, error) {
	return cactimodel.FullyAssociative(nm, entries, entryBits)
}

// SUVHardwareCost computes the Section V-C overhead summary.
func SUVHardwareCost(cores int, clockGHz float64) (HWCost, error) {
	return cactimodel.PaperSectionVC(cores, clockGHz)
}
