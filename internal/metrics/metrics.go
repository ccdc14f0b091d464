// Package metrics is the observability layer of the simulated CMP:
// named counters and gauges with zero-allocation hot paths, log₂-bucketed
// histograms for latency-style quantities, an interval sampler driven by
// simulated cycles, and exporters — JSON snapshot, CSV time series, and
// Chrome trace-event JSON loadable in Perfetto or chrome://tracing.
//
// The layer is strictly observational: enabling it never changes a
// simulated cycle, and when disabled (a nil *Collector) the per-event
// cost is a single nil check. Instruments (Counter, Gauge, Histogram)
// are plain value types whose hot-path methods compile to one or two
// machine instructions; the Collector only walks its probes at interval
// boundaries and at the end of the run.
package metrics

import "suvtm/internal/sim"

// Counter is a monotonically increasing event count. The zero value is
// ready to use; Inc and Add are single adds with no allocation, so
// components may count unconditionally on their hot paths.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { *c++ }

// Add adds n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return uint64(*c) }

// Gauge is an instantaneous level (occupancy, queue depth). The zero
// value is ready to use.
type Gauge int64

// Set replaces the level.
func (g *Gauge) Set(v int64) { *g = Gauge(v) }

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) { *g += Gauge(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return int64(*g) }

// ProbeKind says how the sampler treats a probe's readings.
type ProbeKind uint8

const (
	// Cumulative probes report a monotonically non-decreasing total
	// (reads of a Counter); the sampler emits the per-interval delta, so
	// the series column is a rate per interval.
	Cumulative ProbeKind = iota
	// Level probes report an instantaneous level (occupancy gauges);
	// the sampler records the reading as-is.
	Level
)

// probe is one registered time-series column.
type probe struct {
	name string
	kind ProbeKind
	fn   func() float64
	last float64 // previous cumulative reading (Cumulative only)
}

// Collector gathers one run's metrics: registered probes sampled every
// interval of simulated cycles into a time series, histograms, and the
// final snapshot. A nil *Collector is a valid disabled collector: every
// method is a no-op, so the engine needs no branches beyond the
// receiver's own nil check.
type Collector struct {
	interval sim.Cycles
	nextAt   sim.Cycles
	lastRow  sim.Cycles
	probes   []probe
	hists    []*Histogram
	rows     [][]float64
	breakout map[string][]LabeledValue
	ct       *ChromeTrace
}

// NewCollector creates a collector sampling every interval simulated
// cycles. interval 0 disables the time series (snapshot and histograms
// still work).
func NewCollector(interval sim.Cycles) *Collector {
	return &Collector{interval: interval, nextAt: interval}
}

// Watch registers a named probe. All probes must be registered before
// the first Tick; the registration order fixes the CSV column order.
func (c *Collector) Watch(name string, kind ProbeKind, fn func() float64) {
	if c == nil {
		return
	}
	c.probes = append(c.probes, probe{name: name, kind: kind, fn: fn})
}

// NewHistogram registers and returns a log₂-bucketed histogram. On a
// nil collector it returns nil, which is itself a valid no-op histogram.
func (c *Collector) NewHistogram(name, unit string) *Histogram {
	if c == nil {
		return nil
	}
	h := &Histogram{name: name, unit: unit}
	c.hists = append(c.hists, h)
	return h
}

// AttachChromeTrace mirrors every interval sample into ct as Chrome
// counter events, so occupancy ramps render as counter tracks alongside
// the transaction spans.
func (c *Collector) AttachChromeTrace(ct *ChromeTrace) {
	if c == nil {
		return
	}
	c.ct = ct
}

// Tick advances the sampler to the current simulated cycle, emitting one
// row per interval boundary crossed. The engine calls it once per event;
// between boundaries it is a two-compare no-op.
func (c *Collector) Tick(now sim.Cycles) {
	if c == nil || c.interval == 0 {
		return
	}
	for now >= c.nextAt {
		c.sample(c.nextAt)
		c.nextAt += c.interval
	}
}

// Finish closes the run at the final cycle: samples the trailing partial
// interval (if any activity happened since the last boundary) and closes
// any open Chrome-trace spans.
func (c *Collector) Finish(now sim.Cycles) {
	if c == nil {
		return
	}
	c.Tick(now)
	if c.interval > 0 && now > c.lastRow {
		c.sample(now)
	}
	if c.ct != nil {
		c.ct.CloseOpen(now)
	}
}

// sample appends one time-series row stamped at cycle.
func (c *Collector) sample(cycle sim.Cycles) {
	row := make([]float64, 1+len(c.probes))
	row[0] = float64(cycle)
	for i := range c.probes {
		p := &c.probes[i]
		v := p.fn()
		if p.kind == Cumulative {
			row[1+i] = v - p.last
			p.last = v
		} else {
			row[1+i] = v
		}
	}
	c.rows = append(c.rows, row)
	c.lastRow = cycle
	if c.ct != nil {
		for i := range c.probes {
			c.ct.CounterSample(cycle, c.probes[i].name, row[1+i])
		}
	}
}

// AddBreakout stores a labeled-value table (directory message mix, mesh
// link loads) for the snapshot.
func (c *Collector) AddBreakout(name string, items []LabeledValue) {
	if c == nil || len(items) == 0 {
		return
	}
	if c.breakout == nil {
		c.breakout = make(map[string][]LabeledValue)
	}
	c.breakout[name] = items
}

// LabeledValue is one row of a snapshot breakout table.
type LabeledValue struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
}

// Snapshot is the end-of-run state of every instrument, exportable as
// JSON.
type Snapshot struct {
	Meta       map[string]string         `json:"meta,omitempty"`
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot       `json:"histograms,omitempty"`
	Breakouts  map[string][]LabeledValue `json:"breakouts,omitempty"`
}

// Snapshot captures the current value of every probe and histogram.
// Cumulative probes land in Counters (as totals), Level probes in
// Gauges. Returns nil on a nil collector.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	s := &Snapshot{
		Meta:      make(map[string]string),
		Counters:  make(map[string]uint64),
		Gauges:    make(map[string]float64),
		Breakouts: c.breakout,
	}
	for i := range c.probes {
		p := &c.probes[i]
		v := p.fn()
		if p.kind == Cumulative {
			s.Counters[p.name] = uint64(v)
		} else {
			s.Gauges[p.name] = v
		}
	}
	for _, h := range c.hists {
		s.Histograms = append(s.Histograms, h.Snapshot())
	}
	return s
}

// Series is the sampled time series: Columns[0] is "cycle", the rest are
// probe names in registration order; each row holds the boundary cycle
// followed by one value per probe (per-interval deltas for Cumulative
// probes, instantaneous readings for Level probes).
type Series struct {
	Columns []string
	Rows    [][]float64
}

// Series returns the sampled time series (nil on a nil collector).
func (c *Collector) Series() *Series {
	if c == nil {
		return nil
	}
	cols := make([]string, 1+len(c.probes))
	cols[0] = "cycle"
	for i := range c.probes {
		cols[1+i] = c.probes[i].name
	}
	return &Series{Columns: cols, Rows: c.rows}
}
