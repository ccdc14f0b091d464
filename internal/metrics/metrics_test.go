package metrics

import (
	"strings"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestCollectorIntervalSampling(t *testing.T) {
	col := NewCollector(100)
	var events uint64
	var depth int64
	col.Watch("events", Cumulative, func() float64 { return float64(events) })
	col.Watch("depth", Level, func() float64 { return float64(depth) })

	// Interval 1: 5 events, depth ends at 3.
	events, depth = 5, 3
	col.Tick(100)
	// Interval 2: 2 more events, depth drops to 1.
	events, depth = 7, 1
	col.Tick(250) // mid-interval tick: boundary at 200 already crossed
	// Trailing partial interval: 1 more event.
	events = 8
	col.Finish(270)

	s := col.Series()
	wantCols := []string{"cycle", "events", "depth"}
	for i, w := range wantCols {
		if s.Columns[i] != w {
			t.Fatalf("column %d = %q, want %q", i, s.Columns[i], w)
		}
	}
	want := [][]float64{
		{100, 5, 3}, // first boundary
		{200, 2, 1}, // delta since previous boundary, level as-is
		{270, 1, 1}, // trailing partial row stamped at the final cycle
	}
	if len(s.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d: %v", len(s.Rows), len(want), s.Rows)
	}
	for i, w := range want {
		for j, v := range w {
			if s.Rows[i][j] != v {
				t.Fatalf("row %d = %v, want %v", i, s.Rows[i], w)
			}
		}
	}
}

func TestCollectorSkippedIntervalsEmitOneRowEach(t *testing.T) {
	col := NewCollector(10)
	col.Watch("x", Cumulative, func() float64 { return 1 })
	col.Tick(35) // engine idle across three boundaries
	if got := len(col.Series().Rows); got != 3 {
		t.Fatalf("rows after jump = %d, want 3 (boundaries 10, 20, 30)", got)
	}
}

func TestFinishExactlyOnBoundaryAddsNoExtraRow(t *testing.T) {
	col := NewCollector(50)
	col.Watch("x", Cumulative, func() float64 { return 1 })
	col.Finish(100)
	if got := len(col.Series().Rows); got != 2 {
		t.Fatalf("rows = %d, want 2 (boundaries 50 and 100, no trailing duplicate)", got)
	}
}

func TestSnapshotSplitsKinds(t *testing.T) {
	col := NewCollector(0)
	col.Watch("total", Cumulative, func() float64 { return 9 })
	col.Watch("level", Level, func() float64 { return 4 })
	h := col.NewHistogram("lat", "cycles")
	h.Observe(8)
	col.AddBreakout("mix", []LabeledValue{{Label: "a", Value: 1}})

	s := col.Snapshot()
	if s.Counters["total"] != 9 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["level"] != 4 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Name != "lat" || s.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	if len(s.Breakouts["mix"]) != 1 {
		t.Fatalf("breakouts = %v", s.Breakouts)
	}
}

func TestZeroIntervalDisablesSeries(t *testing.T) {
	col := NewCollector(0)
	col.Watch("x", Cumulative, func() float64 { return 1 })
	col.Tick(1_000_000)
	col.Finish(2_000_000)
	if rows := col.Series().Rows; len(rows) != 0 {
		t.Fatalf("interval-0 collector sampled %d rows", len(rows))
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var col *Collector
	col.Watch("x", Cumulative, func() float64 { panic("probed a nil collector") })
	h := col.NewHistogram("h", "")
	h.Observe(3) // nil histogram: no-op
	col.Tick(100)
	col.Finish(200)
	col.AddBreakout("b", []LabeledValue{{Label: "a"}})
	col.AttachChromeTrace(NewChromeTrace())
	if col.Snapshot() != nil || col.Series() != nil {
		t.Fatal("nil collector returned data")
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Name() != "" {
		t.Fatal("nil histogram returned data")
	}
	if hs := h.Snapshot(); hs.Count != 0 || hs.Name != "" || hs.Buckets != nil {
		t.Fatal("nil histogram snapshot not zero")
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	col := NewCollector(10)
	v := 0.0
	col.Watch("a", Cumulative, func() float64 { return v })
	col.Watch("b", Level, func() float64 { return 0.5 })
	v = 3
	col.Tick(10)
	v = 4.25
	col.Tick(20)

	var sb strings.Builder
	if err := col.Series().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "cycle,a,b\n10,3,0.5\n20,1.25,0.5\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}

	var nilSeries *Series
	if err := nilSeries.WriteCSV(&sb); err != nil {
		t.Fatalf("nil series write: %v", err)
	}
}

func TestSnapshotWriteJSON(t *testing.T) {
	col := NewCollector(0)
	col.Watch("commits", Cumulative, func() float64 { return 12 })
	var sb strings.Builder
	if err := col.Snapshot().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"counters"`, `"commits": 12`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("json %q missing %q", sb.String(), want)
		}
	}
	var nilSnap *Snapshot
	if err := nilSnap.WriteJSON(&sb); err == nil {
		t.Fatal("nil snapshot write succeeded")
	}
}
