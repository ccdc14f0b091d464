package htm

import (
	"fmt"
	"sort"

	"suvtm/internal/faults"
	"suvtm/internal/forensics"
	"suvtm/internal/metrics"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
	"suvtm/internal/trace"
)

// This file is the machine's one observation seam. Every event site
// makes one call on Machine.obs, which stays nil until a consumer
// attaches: the event recorder (SetTracer), the metrics collector with
// its sampler and transaction histograms (EnableMetrics), or the
// conflict-forensics collector (EnableForensics). The entry points on
// hot paths inline to a nil test, so an unobserved run pays one nil
// check per event. The seam builds each consumer's input from machine
// state at the call; consumers only read that state, so a run is
// bit-identical with any set of them attached.

// observers is the set of attached consumers; any of them may be nil.
type observers struct {
	m   *Machine
	rec *trace.Recorder
	fx  *forensics.Collector

	// col is the metrics collector; the histograms below are registered
	// with it and exist only when it does.
	col        *metrics.Collector
	txDuration *metrics.Histogram // begin -> commit, per committed attempt
	txRetries  *metrics.Histogram // aborts consumed before each commit
	txReadSet  *metrics.Histogram // distinct lines read, at commit
	txWriteSet *metrics.Histogram // distinct lines written, at commit
	txWasted   *metrics.Histogram // begin -> abort, per aborted attempt
	sites      map[uint32]*siteHists
}

// siteHists are the per-transaction-site histograms (one group per
// static Begin site in the workload).
type siteHists struct {
	duration *metrics.Histogram
	writeSet *metrics.Histogram
}

// observe returns the machine's observer set, creating it on first
// attach.
func (m *Machine) observe() *observers {
	if m.obs == nil {
		m.obs = &observers{m: m}
	}
	return m.obs
}

// SetTracer attaches an event recorder (nil attaches nothing). Attach
// before Run; tracing begins immediately.
func (m *Machine) SetTracer(r *trace.Recorder) {
	if r != nil {
		m.observe().rec = r
	}
}

// EnableForensics attaches a conflict-provenance collector (nil
// attaches nothing). Attach before Run.
func (m *Machine) EnableForensics(fx *forensics.Collector) {
	if fx != nil {
		m.observe().fx = fx
	}
}

// EnableMetrics attaches a collector and registers every probe the
// simulator exports: transaction and conflict rates from the HTM layer,
// cache activity from the memory system, occupancy gauges from the
// redirect machinery, link traffic from the mesh, and the directory's
// message mix. Call before Run; a nil collector attaches nothing.
func (m *Machine) EnableMetrics(col *metrics.Collector) {
	if col == nil {
		return
	}
	o := m.observe()
	o.col = col
	o.txDuration = col.NewHistogram("tx.duration", "cycles")
	o.txRetries = col.NewHistogram("tx.retries", "aborts")
	o.txReadSet = col.NewHistogram("tx.readset", "lines")
	o.txWriteSet = col.NewHistogram("tx.writeset", "lines")
	o.txWasted = col.NewHistogram("tx.wasted", "cycles")
	o.sites = make(map[uint32]*siteHists)
	m.Mesh.EnableStats()

	sum := func(f func(*stats.Counters) uint64) func() float64 {
		return func() float64 {
			var t uint64
			for _, c := range m.Cores {
				t += f(&c.Counters)
			}
			return float64(t)
		}
	}
	// Transaction and conflict rates (per-interval deltas in the series).
	col.Watch("tx.commits", metrics.Cumulative, sum(func(c *stats.Counters) uint64 { return c.TxCommitted }))
	col.Watch("tx.aborts", metrics.Cumulative, sum(func(c *stats.Counters) uint64 { return c.TxAborted }))
	col.Watch("tx.nacks", metrics.Cumulative, sum(func(c *stats.Counters) uint64 { return c.NACKsReceived }))
	// Memory system: per-core L1s via the machine counters, the shared L2
	// via its own cache stats.
	col.Watch("mem.l1.hits", metrics.Cumulative, sum(func(c *stats.Counters) uint64 { return c.L1Hits }))
	col.Watch("mem.l1.misses", metrics.Cumulative, sum(func(c *stats.Counters) uint64 { return c.L1Misses }))
	col.Watch("mem.l2.lookups", metrics.Cumulative, func() float64 { s := m.L2.Stats(); return float64(s.Lookups.Value()) })
	col.Watch("mem.l2.hits", metrics.Cumulative, func() float64 { s := m.L2.Stats(); return float64(s.Hits.Value()) })
	col.Watch("mem.l2.evictions", metrics.Cumulative, func() float64 { s := m.L2.Stats(); return float64(s.Evictions.Value()) })
	// Interconnect and directory traffic.
	col.Watch("mesh.msgs", metrics.Cumulative, func() float64 { return float64(m.Mesh.Messages()) })
	col.Watch("dir.gets", metrics.Cumulative, func() float64 { s := m.Dir.Stats(); return float64(s.GETS.Value()) })
	col.Watch("dir.getm", metrics.Cumulative, func() float64 { s := m.Dir.Stats(); return float64(s.GETM.Value()) })
	col.Watch("dir.invalidations", metrics.Cumulative, func() float64 { s := m.Dir.Stats(); return float64(s.Invalidations.Value()) })
	// Robustness: injected-fault activity, protocol recovery and
	// forward-progress escalation (flat zero series on fault-free runs).
	col.Watch("faults.injected-nacks", metrics.Cumulative, sum(func(c *stats.Counters) uint64 { return c.InjectedNACKs }))
	col.Watch("mesh.retries", metrics.Cumulative, sum(func(c *stats.Counters) uint64 { return c.MeshRetries }))
	col.Watch("progress.escalations", metrics.Cumulative, sum(func(c *stats.Counters) uint64 { return c.StarveEscalations }))
	col.Watch("progress.token-grants", metrics.Cumulative, sum(func(c *stats.Counters) uint64 { return c.TokenGrants }))
	// Redirect machinery occupancy (instantaneous levels).
	col.Watch("redirect.entries", metrics.Level, func() float64 { return float64(m.Redirect.EntryCount()) })
	col.Watch("redirect.transient", metrics.Level, func() float64 {
		t := 0
		for i := range m.Cores {
			t += m.Redirect.TransientCount(i)
		}
		return float64(t)
	})
	col.Watch("redirect.swapped", metrics.Level, func() float64 { return float64(m.Redirect.SwappedOut()) })
	col.Watch("redirect.pool.pages", metrics.Level, func() float64 { return float64(m.Redirect.Pool().Pages()) })
}

// tick advances the metrics sampler to the cycle of the next step.
//
//suv:hotpath
func (o *observers) tick(at sim.Cycles) {
	if o != nil {
		o.col.Tick(at)
	}
}

// event records one lifecycle event that only the recorder consumes
// (begin, barrier, suspend/resume, fault window, token, starvation
// escalation, remote kill), stamped with the current cycle.
//
//suv:hotpath
func (o *observers) event(kind trace.Kind, core int, line sim.Line, other int, info uint64) {
	if o != nil {
		o.rec.Record(trace.Event{Cycle: o.m.now, Core: core, Kind: kind, Line: line, Other: other, Info: info})
	}
}

// commit observes c's outermost commit (called from sealCommit, before
// the transactional state is released).
//
//suv:hotpath
func (o *observers) commit(c *Core) {
	if o != nil {
		o.onCommit(c)
	}
}

// abort observes the start of c's abort; it reads attemptCyc and the
// doom provenance before startAbort resets them.
//
//suv:hotpath
func (o *observers) abort(c *Core) {
	if o != nil {
		o.onAbort(c)
	}
}

// nack observes one refused access of c that costs it stall cycles.
// holder is the core whose signatures refused it, or nil for an
// injected refusal, which has no line and no signature decision.
//
//suv:hotpath
func (o *observers) nack(c, holder *Core, line sim.Line, write bool, stall sim.Cycles, cause forensics.Cause, precise bool) {
	if o != nil {
		o.onNACK(c, holder, line, write, stall, cause, precise)
	}
}

// lazyStall observes a lazy committer c stalled at commit arbitration
// by eager holder h. Only forensics consumes it: the stall is not a
// traced NACK.
//
//suv:hotpath
func (o *observers) lazyStall(c, h *Core) {
	if o != nil {
		o.onLazyStall(c, h)
	}
}

func (o *observers) onCommit(c *Core) {
	m := o.m
	o.rec.Record(trace.Event{Cycle: m.now, Core: c.ID, Kind: trace.Commit, Other: -1, Info: uint64(c.Frames[0].Site)})
	if o.col == nil {
		return
	}
	dur := m.now - c.attemptStart
	o.txDuration.Observe(dur)
	o.txRetries.Observe(uint64(c.consecAborts))
	o.txReadSet.Observe(uint64(c.readSet.Len()))
	o.txWriteSet.Observe(uint64(c.writeSet.Len()))
	sh := o.site(c.Frames[0].Site)
	sh.duration.Observe(dur)
	sh.writeSet.Observe(uint64(c.writeSet.Len()))
}

func (o *observers) onAbort(c *Core) {
	m := o.m
	o.rec.Record(trace.Event{Cycle: m.now, Core: c.ID, Kind: trace.Abort, Other: -1, Info: uint64(c.Frames[0].Site)})
	o.txWasted.Observe(m.now - c.attemptStart)
	if o.fx == nil {
		return
	}
	d := &c.doom
	o.fx.Abort(forensics.AbortEvent{
		Cycle: m.now, Victim: c.ID, VictimSite: c.txSite(), Wasted: c.attemptCyc, AttemptStart: c.attemptStart,
		Killer: d.killer, KillerSite: d.killerSite, Line: d.line, Cause: d.cause, SigHit: d.sigHit, Precise: d.precise,
	})
}

func (o *observers) onNACK(c, holder *Core, line sim.Line, write bool, stall sim.Cycles, cause forensics.Cause, precise bool) {
	e := trace.Event{Cycle: o.m.now, Core: c.ID, Kind: trace.NACK, Other: -1}
	if holder != nil {
		e.Line, e.Other = line, holder.ID
	}
	o.rec.Record(e)
	o.forensicNACK(c, holder, line, write, stall, cause, precise)
}

func (o *observers) onLazyStall(c, h *Core) {
	if o.fx == nil {
		return
	}
	// A commit-time validation stall is a signature decision like any
	// other NACK: classify it against the precise sets and attribute the
	// retry interval to the witness line.
	line, precise := commitWitness(c, h)
	o.forensicNACK(c, h, line, true, o.m.cfg.RetryInterval, forensics.CauseLazyValidation, precise)
}

// forensicNACK feeds one refused request to the forensics collector.
func (o *observers) forensicNACK(c, holder *Core, line sim.Line, write bool, stall sim.Cycles, cause forensics.Cause, precise bool) {
	if o.fx == nil {
		return
	}
	ev := forensics.NACKEvent{
		Cycle: o.m.now, Requester: c.ID, Holder: forensics.NoCore, Line: line,
		Cause: cause, ReqSite: c.txSite(), HoldSite: forensics.NoSite, Stall: stall,
	}
	if holder != nil {
		ev.Holder, ev.HoldSite = holder.ID, holder.txSite()
		ev.SigHit, ev.Precise = true, precise
		if write {
			ev.Kind = forensics.Write
		}
		if line != forensics.NoLine {
			ev.Sharers = o.m.Dir.HolderCount(line)
		}
		if !precise {
			ev.AliasRate = max(holder.WriteSig.AliasRate(), holder.ReadSig.AliasRate())
		}
	}
	o.fx.NACK(ev)
}

// site returns (lazily creating) the histogram group for a Begin site.
func (o *observers) site(site uint32) *siteHists {
	sh, ok := o.sites[site]
	if !ok {
		sh = &siteHists{
			duration: o.col.NewHistogram(fmt.Sprintf("tx.duration.site%d", site), "cycles"),
			writeSet: o.col.NewHistogram(fmt.Sprintf("tx.writeset.site%d", site), "lines"),
		}
		o.sites[site] = sh
	}
	return sh
}

// finish ends the run at cycle end for the metrics collector: it
// flushes the trailing sample interval and builds the snapshot breakout
// tables (directory message mix, mesh link utilisation).
func (o *observers) finish(end sim.Cycles) {
	if o == nil || o.col == nil {
		return
	}
	m := o.m
	o.col.Finish(end)

	ds := m.Dir.Stats()
	o.col.AddBreakout("dir.mix", []metrics.LabeledValue{
		{Label: "GETS", Value: float64(ds.GETS.Value())},
		{Label: "GETM", Value: float64(ds.GETM.Value())},
		{Label: "downgrades", Value: float64(ds.Downgrades.Value())},
		{Label: "invalidations", Value: float64(ds.Invalidations.Value())},
		{Label: "drops", Value: float64(ds.Drops.Value())},
	})

	loads := m.Mesh.LinkLoads()
	if len(loads) > 16 {
		loads = loads[:16] // the 16 hottest links tell the hotspot story
	}
	links := make([]metrics.LabeledValue, 0, len(loads))
	for _, l := range loads {
		fx, fy := m.Mesh.Coord(l.From)
		tx, ty := m.Mesh.Coord(l.To)
		links = append(links, metrics.LabeledValue{
			Label: fmt.Sprintf("(%d,%d)->(%d,%d)", fx, fy, tx, ty),
			Value: float64(l.Messages),
		})
	}
	o.col.AddBreakout("mesh.links", links)

	// Fault-window activity by kind, when a chaos plan drove the run.
	if m.faults != nil {
		fs := m.faults.Stats()
		mixf := make([]metrics.LabeledValue, 0, len(fs.PerKind))
		for k, n := range fs.PerKind {
			if n > 0 {
				mixf = append(mixf, metrics.LabeledValue{Label: faults.Kind(k).String(), Value: float64(n)})
			}
		}
		o.col.AddBreakout("faults.windows", mixf)
	}

	// Per-site commit mix, so the snapshot names the hot sites even
	// without digging into the histograms.
	sites := make([]uint32, 0, len(o.sites))
	//suv:orderinsensitive keys are collected then sorted before any use
	for s := range o.sites {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	mix := make([]metrics.LabeledValue, 0, len(sites))
	for _, s := range sites {
		mix = append(mix, metrics.LabeledValue{
			Label: fmt.Sprintf("site %d", s),
			Value: float64(o.sites[s].duration.Count()),
		})
	}
	o.col.AddBreakout("tx.commits.by-site", mix)
}

// commitWitness extracts a deterministic (line, confirmed) witness for
// a write-signature-vs-victim intersection: the smallest line the
// committer's precise write set shares with the victim's precise read
// or write set, or (NoLine, false) when the sets are disjoint — a pure
// signature false positive.
func commitWitness(committer, victim *Core) (sim.Line, bool) {
	lr, okr := committer.writeSet.MinCommon(victim.readSet)
	lw, okw := committer.writeSet.MinCommon(victim.writeSet)
	switch {
	case okr && okw:
		if lw < lr {
			return lw, true
		}
		return lr, true
	case okr:
		return lr, true
	case okw:
		return lw, true
	}
	return forensics.NoLine, false
}
