package htm

import (
	"fmt"
	"sort"

	"suvtm/internal/faults"

	"suvtm/internal/metrics"
	"suvtm/internal/stats"
)

// observer is the machine's hook into the metrics layer: histograms fed
// at transaction boundaries plus the end-of-run breakout tables. It only
// exists when metrics collection is enabled, so the engine's hot paths
// pay a single nil check when it is not.
type observer struct {
	txDuration *metrics.Histogram // begin -> commit, per committed attempt
	txRetries  *metrics.Histogram // aborts consumed before each commit
	txReadSet  *metrics.Histogram // distinct lines read, at commit
	txWriteSet *metrics.Histogram // distinct lines written, at commit
	txWasted   *metrics.Histogram // begin -> abort, per aborted attempt

	col   *metrics.Collector
	sites map[uint32]*siteHists
}

// siteHists are the per-transaction-site histograms (one group per
// static Begin site in the workload).
type siteHists struct {
	duration *metrics.Histogram
	writeSet *metrics.Histogram
}

// EnableMetrics attaches a collector and registers every probe the
// simulator exports: transaction and conflict rates from the HTM layer,
// cache activity from the memory system, occupancy gauges from the
// redirect machinery, link traffic from the mesh, and the directory's
// message mix. Call before Run; a nil collector leaves metrics disabled.
func (m *Machine) EnableMetrics(col *metrics.Collector) {
	if col == nil {
		return
	}
	m.metrics = col
	m.obs = &observer{
		txDuration: col.NewHistogram("tx.duration", "cycles"),
		txRetries:  col.NewHistogram("tx.retries", "aborts"),
		txReadSet:  col.NewHistogram("tx.readset", "lines"),
		txWriteSet: col.NewHistogram("tx.writeset", "lines"),
		txWasted:   col.NewHistogram("tx.wasted", "cycles"),
		col:        col,
		sites:      make(map[uint32]*siteHists),
	}
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

// Metrics returns the attached collector (possibly nil).
func (m *Machine) Metrics() *metrics.Collector { return m.metrics }

// site returns (lazily creating) the histogram group for a Begin site.
func (o *observer) site(site uint32) *siteHists {
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

// onCommit records a committing attempt (called from sealCommit, before
// the transactional state is released).
func (o *observer) onCommit(m *Machine, c *Core) {
	dur := m.now - c.attemptStart
	o.txDuration.Observe(dur)
	o.txRetries.Observe(uint64(c.consecAborts))
	o.txReadSet.Observe(uint64(c.readSet.Len()))
	o.txWriteSet.Observe(uint64(c.writeSet.Len()))
	sh := o.site(c.Frames[0].Site)
	sh.duration.Observe(dur)
	sh.writeSet.Observe(uint64(c.writeSet.Len()))
}

// onAbort records an aborting attempt's wasted window.
func (o *observer) onAbort(m *Machine, c *Core) {
	o.txWasted.Observe(m.now - c.attemptStart)
}

// finish flushes the trailing sample interval and builds the snapshot
// breakout tables (directory message mix, mesh link utilisation).
func (o *observer) finish(m *Machine, end uint64) {
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
