// Package experiments reproduces every table and figure of the paper's
// evaluation: the Figure 6 and Figure 9 execution-time breakdowns, the
// Table V overflow statistics, the Figure 7/8 redirect-table sensitivity
// sweeps, the Table I abort-ratio survey, and the Table VI/VII hardware
// model. Independent simulations run concurrently on a bounded worker
// pool; each simulation itself is single-goroutine and deterministic.
package experiments

import (
	"fmt"

	"suvtm/internal/faults"
	"suvtm/internal/forensics"
	"suvtm/internal/htm"
	"suvtm/internal/htm/dyntm"
	"suvtm/internal/htm/fastm"
	"suvtm/internal/htm/logtmse"
	"suvtm/internal/htm/suvtm"
	"suvtm/internal/mem"
	"suvtm/internal/metrics"
	"suvtm/internal/sim"
	"suvtm/internal/trace"
	"suvtm/internal/workload"
)

// Scheme identifies a version-management scheme under test.
type Scheme string

// The schemes the paper evaluates.
const (
	LogTMSE  Scheme = "LogTM-SE"
	FasTM    Scheme = "FasTM"
	SUVTM    Scheme = "SUV-TM"
	DynTM    Scheme = "DynTM"
	DynTMSUV Scheme = "DynTM+SUV"
)

// Fig6Schemes are the schemes of Figure 6, in the paper's L/F/S order.
var Fig6Schemes = []Scheme{LogTMSE, FasTM, SUVTM}

// Fig9Schemes are the schemes of Figure 9 (D and D+S).
var Fig9Schemes = []Scheme{DynTM, DynTMSUV}

// NewVM constructs a fresh version manager for a scheme.
func NewVM(s Scheme) (htm.VersionManager, error) {
	switch s {
	case LogTMSE:
		return logtmse.New(), nil
	case FasTM:
		return fastm.New(), nil
	case SUVTM:
		return suvtm.New(), nil
	case DynTM:
		return dyntm.New(), nil
	case DynTMSUV:
		return dyntm.NewWithSUV(), nil
	}
	return nil, fmt.Errorf("experiments: unknown scheme %q", s)
}

// heapBase is where simulated workload data begins; heapSize bounds the
// simulated physical address space handed to one run.
const (
	heapBase = 0x10_0000
	heapSize = 1 << 33
)

// Spec describes one simulation run.
type Spec struct {
	App    string
	Scheme Scheme
	Cores  int     // 0 = paper default (16)
	Seed   uint64  // 0 = 1
	Scale  float64 // 0 = 1.0
	// Tweak, if non-nil, adjusts the machine configuration (sensitivity
	// sweeps resize the redirect tables here).
	Tweak func(*htm.Config)
	// TraceEvents, when positive, records the last N transaction
	// lifecycle events into Outcome.Trace.
	TraceEvents int
	// Metrics enables counters/gauge/histogram collection and the
	// end-of-run snapshot (Outcome.Metrics).
	Metrics bool
	// SampleInterval, when positive, additionally samples a time series
	// every N simulated cycles (Outcome.Series), implying Metrics.
	SampleInterval sim.Cycles
	// ChromeTrace streams the full lifecycle-event sequence into a Chrome
	// trace-event builder (Outcome.Chrome), implying Metrics.
	ChromeTrace bool
	// FaultPlan, when non-empty, names a built-in chaos plan (see
	// faults.BuiltinNames) whose windows are injected into the run; the
	// forward-progress escalation ladder is armed alongside it. FaultSeed
	// parameterizes the plan's window placement (0 = 1).
	FaultPlan string
	FaultSeed uint64
	// Faults, when non-nil, injects this exact plan instead of building
	// one from FaultPlan/FaultSeed (replaying a decoded corpus file).
	Faults *faults.Plan
	// Forensics attaches a conflict-provenance collector and builds the
	// conflict report (Outcome.Forensics). Forensic runs always bypass
	// the run cache: the report lives outside the cached entry.
	Forensics bool
	// ForensicsTopK bounds the report's hot-site and hot-line tables
	// (0 = the forensics default).
	ForensicsTopK int
}

// wantMetrics reports whether any observability output is requested.
func (s *Spec) wantMetrics() bool {
	return s.Metrics || s.SampleInterval > 0 || s.ChromeTrace
}

// resolved returns the spec's effective cores/seed/scale with the
// paper's defaults applied.
func (s *Spec) resolved() (cores int, seed uint64, scale float64) {
	cores, seed, scale = s.Cores, s.Seed, s.Scale
	if cores == 0 {
		cores = 16
	}
	if seed == 0 {
		seed = 1
	}
	if scale == 0 {
		scale = 1.0
	}
	return cores, seed, scale
}

// Outcome is the result of one run plus identification and the
// post-run invariant check.
type Outcome struct {
	Spec Spec
	*htm.Result
	AppMeta    *workload.App // generator metadata; nil for cache-served outcomes
	CheckErr   error         // nil when the serializability invariants held
	PoolPages  uint64
	RedirectEn int             // live redirect entries at end of run
	Trace      *trace.Recorder // non-nil when Spec.TraceEvents > 0

	// Observability outputs, populated per the Spec's metrics fields.
	Metrics   *metrics.Snapshot    // non-nil when metrics were enabled
	Series    *metrics.Series      // non-nil when SampleInterval > 0
	Chrome    *metrics.ChromeTrace // non-nil when ChromeTrace was set
	Forensics *forensics.Report    // non-nil when Spec.Forensics was set
}

// Run executes one simulation, cold: fresh memory, directory and
// redirect state, no cache involvement. The fleet layer (RunMany,
// RunManyWith, RunCached) builds on runSpec to add arenas and caching.
func Run(spec Spec) (*Outcome, error) { return runSpec(spec, nil) }

// runSpec executes one simulation, drawing the big allocations from
// arena when non-nil (the per-worker reuse path of runBatch).
func runSpec(spec Spec, arena *machineArena) (*Outcome, error) {
	cores, seed, scale := spec.resolved()
	gen, err := workload.Get(spec.App)
	if err != nil {
		return nil, err
	}
	vm, err := NewVM(spec.Scheme)
	if err != nil {
		return nil, err
	}

	var memory *mem.Memory
	var alloc *mem.Allocator
	var pre htm.Prebuilt
	if arena != nil {
		memory, alloc, pre = arena.take()
	} else {
		memory = mem.NewMemory()
		alloc = mem.NewAllocator(heapBase, heapSize)
	}
	genCfg := workload.GenConfig{Cores: cores, Seed: seed, Scale: scale}
	var app *workload.App
	if arena != nil {
		app = arena.generate(keyOf(spec), memory, alloc,
			func() *workload.App { return gen(genCfg, alloc, memory) })
	} else {
		app = gen(genCfg, alloc, memory)
	}

	plan := spec.Faults
	if plan == nil && spec.FaultPlan != "" {
		fseed := spec.FaultSeed
		if fseed == 0 {
			fseed = 1
		}
		plan, err = faults.Builtin(spec.FaultPlan, fseed, cores)
		if err != nil {
			return nil, err
		}
	}

	cfg := htm.DefaultConfig(cores)
	cfg.Seed = seed
	if plan != nil {
		// A chaos run arms the escalation ladder: injected storms are
		// exactly what boosted backoff and the serialization token exist
		// to survive.
		cfg = cfg.WithProgressLadder()
	}
	if spec.Tweak != nil {
		spec.Tweak(&cfg)
	}
	machine := htm.NewWith(cfg, vm, app.Programs, memory, alloc, pre)
	if arena != nil {
		arena.keep(machine)
	}
	if plan != nil {
		machine.SetFaults(faults.NewInjector(plan))
	}
	var rec *trace.Recorder
	if spec.TraceEvents > 0 {
		rec = trace.NewRecorder(spec.TraceEvents)
		machine.SetTracer(rec)
	}
	var col *metrics.Collector
	var chrome *metrics.ChromeTrace
	if spec.wantMetrics() {
		col = metrics.NewCollector(spec.SampleInterval)
		if spec.ChromeTrace {
			chrome = metrics.NewChromeTrace()
			col.AttachChromeTrace(chrome)
			// The Chrome trace needs the full event stream; piggyback on
			// the user's recorder or attach a minimal one.
			if rec == nil {
				rec = trace.NewRecorder(1)
				machine.SetTracer(rec)
			}
			rec.Stream(chrome)
		}
		machine.EnableMetrics(col)
	}
	var fx *forensics.Collector
	if spec.Forensics {
		fx = forensics.NewCollector(cores)
		machine.EnableForensics(fx)
	}
	res, err := machine.Run()
	out := &Outcome{
		Spec:       spec,
		Result:     res,
		AppMeta:    app,
		PoolPages:  machine.Redirect.Pool().Pages(),
		RedirectEn: machine.Redirect.EntryCount(),
		Chrome:     chrome,
	}
	if spec.TraceEvents > 0 {
		out.Trace = rec
	}
	if fx != nil {
		rep := fx.Report(spec.ForensicsTopK)
		rep.App = spec.App
		rep.Scheme = string(spec.Scheme)
		rep.Seed = seed
		out.Forensics = rep
	}
	if col != nil {
		snap := col.Snapshot()
		snap.Meta["app"] = spec.App
		snap.Meta["scheme"] = string(spec.Scheme)
		snap.Meta["cores"] = fmt.Sprint(cores)
		snap.Meta["seed"] = fmt.Sprint(seed)
		if res != nil {
			snap.Meta["cycles"] = fmt.Sprint(res.Cycles)
		}
		out.Metrics = snap
		if spec.SampleInterval > 0 {
			out.Series = col.Series()
		}
	}
	if err != nil {
		// A failed run (watchdog, deadlock, invariant violation) still
		// carries its diagnostics: the machine flushed the collector
		// before erroring, so the partial Outcome holds the trace tail,
		// metrics snapshot and Chrome trace for the post-mortem.
		return out, fmt.Errorf("%s under %s: %w", spec.App, spec.Scheme, err)
	}
	if app.Check != nil {
		out.CheckErr = app.Check(machine.ArchMem())
	}
	return out, nil
}

// RunMany executes the specs concurrently on a worker pool sized to the
// machine (simulations are CPU-bound) and returns outcomes in spec
// order. It runs with the default fleet options: per-worker machine
// arenas, the run cache for pure specs, and longest-expected-first
// dispatch. The first simulation error stops further dispatch —
// in-flight runs finish, already-computed outcomes are returned for
// post-mortems (never-dispatched slots stay nil) along with the error.
func RunMany(specs []Spec) ([]*Outcome, error) {
	return RunManyWith(specs, BatchOptions{})
}

// Speedup returns how much faster b completed than a (the paper's
// "outperforms by N%": cycles(a)/cycles(b) - 1).
func Speedup(a, b *Outcome) float64 {
	if b.Cycles == 0 {
		return 0
	}
	return float64(a.Cycles)/float64(b.Cycles) - 1
}
