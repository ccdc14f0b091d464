package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"suvtm/internal/experiments"
	"suvtm/internal/htm"
	wl "suvtm/internal/workload"
)

// tracer is the traced pass: the span log, the per-layer totals and the
// layered re-execution of each op's specs through the timed scheme.
type tracer struct {
	spans  *spanLog
	layers layers
	arenas []*arena // one per layered-batch worker, kept across ops
	pinned bool     // the current op is one of the workload's pinned ops
}

func newTracer() *tracer {
	t := &tracer{spans: newSpanLog()}
	for i := 0; i < jobs(); i++ {
		t.arenas = append(t.arenas, new(arena))
	}
	return t
}

// op runs traced op i: first its untraced form, as the reference, then
// its instrumented form, whose runs must have the reference's digests.
// The instrumented form is the layered replay on the simulating
// workloads and the progress-armed batch on grid-warm, where nothing is
// simulated. It returns the reference outcomes.
func (t *tracer) op(w *workload, specs []experiments.Spec, i int) ([]*experiments.Outcome, error) {
	t.pinned = i < w.pinOps
	root := t.spans.open("op", 0, i)
	defer t.spans.close(root)
	plain := func() ([]*experiments.Outcome, error) {
		defer t.spans.close(t.spans.open("reference", root.ID, i))
		return w.execute(specs)
	}
	var reference, traced func() ([]*experiments.Outcome, error)
	switch {
	case !w.batch:
		reference = plain
		traced = func() ([]*experiments.Outcome, error) { return t.runBatch(specs, []*arena{nil}, i, root.ID) }
	case !w.cache:
		reference = func() ([]*experiments.Outcome, error) { return t.fleetBatch(specs, w.options(), i, root.ID) }
		traced = func() ([]*experiments.Outcome, error) { return t.runBatch(specs, t.arenas, i, root.ID) }
	default:
		reference = plain
		traced = func() ([]*experiments.Outcome, error) { return t.fleetBatch(specs, w.options(), i, root.ID) }
	}
	t0 := time.Now()
	ref, err := reference()
	t1 := time.Now()
	if err != nil {
		return ref, err
	}
	got, err := traced()
	t.layers.addOp(t1.Sub(t0), time.Since(t1))
	if err != nil {
		return ref, fmt.Errorf("traced: %w", err)
	}
	if err := check(got, digests(ref)); err != nil {
		return ref, fmt.Errorf("traced: %w", err)
	}
	return ref, nil
}

// run executes spec one layer at a time — generation, machine
// construction, the run under the timed scheme, the workload's check
// and, when the spec observes, every export — with one span per layer
// under parent. It rebuilds what experiments.Run does because that entry
// point has no seam for wrapping the scheme; the digest comparison in op
// proves the two agree.
func (t *tracer) run(spec experiments.Spec, a *arena, op, parent int) (*experiments.Outcome, error) {
	cores, seed, scale := resolve(spec)
	gen, err := wl.Get(spec.App)
	if err != nil {
		return nil, err
	}
	vm, err := experiments.NewVM(spec.Scheme)
	if err != nil {
		return nil, err
	}
	tot := runTotals{scheme: spec.Scheme, vm: newTimedVM(vm)}
	memory, alloc, pre := a.take()

	sp := t.spans.open("workload.gen", parent, op)
	app := gen(wl.GenConfig{Cores: cores, Seed: seed, Scale: scale}, alloc, memory)
	tot.genNs = int64(t.spans.close(sp))
	tot.programOps = uint64(app.TotalOps())

	cfg := htm.DefaultConfig(cores)
	cfg.Seed = seed
	if spec.Tweak != nil {
		spec.Tweak(&cfg)
	}
	sp = t.spans.open("htm.new", parent, op)
	m := htm.NewWith(cfg, tot.vm, app.Programs, memory, alloc, pre)
	tot.newNs = int64(t.spans.close(sp))
	a.keep(m)
	obs := attachObservers(m, spec, cores)

	run := t.spans.open("htm.run", parent, op)
	res, runErr := m.Run()
	tot.runNs = int64(t.spans.close(run))
	for k, name := range callNames {
		if n := tot.vm.calls[k]; n > 0 {
			t.spans.keep(span{Parent: run.ID, Op: op, Name: "scheme." + name,
				Start: run.Start, End: run.Start + tot.vm.estNs(callKind(k)), Count: n})
		}
	}
	out := &experiments.Outcome{
		Spec:       spec,
		Result:     res,
		AppMeta:    app,
		PoolPages:  m.Redirect.Pool().Pages(),
		RedirectEn: m.Redirect.EntryCount(),
	}
	obs.fill(out, cores, seed)
	if runErr != nil {
		return out, fmt.Errorf("%s under %s: %w", spec.App, spec.Scheme, runErr)
	}

	sp = t.spans.open("workload.check", parent, op)
	if app.Check != nil {
		out.CheckErr = app.Check(m.ArchMem())
	}
	tot.checkNs = int64(t.spans.close(sp))

	if observes(spec) {
		sp = t.spans.open("observe.export", parent, op)
		n, err := exportAll(out, io.Discard)
		tot.exportNs = int64(t.spans.close(sp))
		if err != nil {
			return out, err
		}
		tot.observed, tot.exportBytes = true, n
		if out.Chrome != nil {
			tot.chromeEvents = out.Chrome.Events()
		}
	}
	t.layers.addRun(&tot, res, m, t.pinned)
	return out, nil
}

// runBatch replays specs layer by layer with one worker per arena and
// returns the outcomes in spec order. A nil arena builds every machine
// cold.
func (t *tracer) runBatch(specs []experiments.Spec, arenas []*arena, op, parent int) ([]*experiments.Outcome, error) {
	outs := make([]*experiments.Outcome, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, a := range arenas[:min(len(arenas), len(specs))] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				outs[i], errs[i] = t.run(specs[i], a, op, parent)
			}
		}()
	}
	wg.Wait()
	return outs, errors.Join(errs...)
}

// fleetBatch runs specs through RunManyWith with the progress seam armed,
// recording the batch span, the fleet counters the batch moved, and its
// tail: the batch's end minus the first moment a worker found the queue
// empty, which is the time the batch waited on stragglers.
func (t *tracer) fleetBatch(specs []experiments.Spec, opts experiments.BatchOptions, op, parent int) ([]*experiments.Outcome, error) {
	var done []int64 // completion times; OnProgress runs under the fleet's progress lock
	opts.OnProgress = func(experiments.FleetProgress) { done = append(done, t.spans.now()) }
	before := experiments.FleetSnapshot()
	sp := t.spans.open("fleet.batch", parent, op)
	outs, err := experiments.RunManyWith(specs, opts)
	t.spans.close(sp)
	end := t.spans.now()
	// With w workers the completion that leaves one of them idle is the
	// (len-w+1)-th: every spec has been handed out by then.
	var tail int64
	if first := len(specs) - min(opts.Jobs, len(specs)); first < len(done) {
		tail = end - done[first]
	}
	t.layers.addBatch(len(specs), before, experiments.FleetSnapshot(), tail)
	return outs, err
}
