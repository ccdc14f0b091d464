package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"suvtm/internal/faults"
	"suvtm/internal/sim"
	"suvtm/internal/trace"
)

func TestChromeTraceSpans(t *testing.T) {
	ct := NewChromeTrace()
	// Core 0: abort then commit; core 1: left open at the end of the run.
	ct.Emit(trace.Event{Cycle: 10, Core: 0, Kind: trace.Begin, Info: 3})
	ct.Emit(trace.Event{Cycle: 25, Core: 0, Kind: trace.Abort, Info: 3})
	ct.Emit(trace.Event{Cycle: 40, Core: 0, Kind: trace.Begin, Info: 3})
	ct.Emit(trace.Event{Cycle: 55, Core: 0, Kind: trace.Commit, Info: 3})
	ct.Emit(trace.Event{Cycle: 50, Core: 1, Kind: trace.Begin, Info: 7})
	ct.Emit(trace.Event{Cycle: 52, Core: 1, Kind: trace.NACK, Line: 0x1000, Other: 0})
	ct.CloseOpen(90)

	if ct.Spans() != 3 {
		t.Fatalf("spans = %d, want 3 (abort + commit + unfinished)", ct.Spans())
	}

	var sb strings.Builder
	if err := ct.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	outcomes := map[string]int{}
	threads := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			outcomes[e.Args["outcome"].(string)]++
			if e.Dur <= 0 {
				t.Fatalf("span %q has non-positive duration %v", e.Name, e.Dur)
			}
		case "M":
			threads++
		}
	}
	if outcomes["abort"] != 1 || outcomes["commit"] != 1 || outcomes["unfinished"] != 1 {
		t.Fatalf("outcomes = %v", outcomes)
	}
	if threads != 2 {
		t.Fatalf("thread metadata records = %d, want 2", threads)
	}
}

func TestChromeTraceZeroWidthSpanIsVisible(t *testing.T) {
	ct := NewChromeTrace()
	ct.Emit(trace.Event{Cycle: 5, Core: 0, Kind: trace.Begin})
	ct.Emit(trace.Event{Cycle: 5, Core: 0, Kind: trace.Commit})
	var sb strings.Builder
	if err := ct.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"dur":1`) {
		t.Fatalf("zero-width span not widened: %s", sb.String())
	}
}

func TestChromeTraceCommitWithoutBeginIgnored(t *testing.T) {
	ct := NewChromeTrace()
	ct.Emit(trace.Event{Cycle: 5, Core: 0, Kind: trace.Commit})
	if ct.Spans() != 0 {
		t.Fatalf("spans = %d, want 0", ct.Spans())
	}
}

func TestChromeTraceCounterTrack(t *testing.T) {
	col := NewCollector(10)
	ct := NewChromeTrace()
	col.AttachChromeTrace(ct)
	v := 0.0
	col.Watch("aborts", Cumulative, func() float64 { return v })
	v = 4
	col.Tick(10)
	v = 6
	col.Finish(20)

	var sb strings.Builder
	if err := ct.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var values []float64
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" && e.Name == "aborts" {
			values = append(values, e.Args["value"].(float64))
		}
	}
	if len(values) != 2 || values[0] != 4 || values[1] != 2 {
		t.Fatalf("counter samples = %v, want [4 2] (per-interval deltas)", values)
	}
}

// TestChromeTraceRemoteKillLine checks the killing line renders in the
// instant's args when the doom had a precise witness, and is omitted
// when it did not.
func TestChromeTraceRemoteKillLine(t *testing.T) {
	ct := NewChromeTrace()
	ct.Emit(trace.Event{Cycle: 5, Core: 0, Kind: trace.RemoteKill, Other: 3, Line: 0x4f})
	ct.Emit(trace.Event{Cycle: 6, Core: 1, Kind: trace.RemoteKill, Other: 3, Line: trace.NoLine})
	var sb strings.Builder
	if err := ct.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.TraceEvents {
		if e.Name != "remote-kill" {
			continue
		}
		line, hasLine := e.Args["line"]
		switch e.Tid {
		case 0:
			if !hasLine || line != "0x4f" {
				t.Errorf("witnessed kill args = %v, want line=0x4f", e.Args)
			}
		case 1:
			if hasLine {
				t.Errorf("unwitnessed kill args = %v, want no line", e.Args)
			}
		}
	}
}

func TestNilChromeTraceIsNoOp(t *testing.T) {
	var ct *ChromeTrace
	ct.Emit(trace.Event{Kind: trace.Begin})
	ct.CounterSample(1, "x", 2)
	ct.CloseOpen(10)
	if ct.Spans() != 0 || ct.Events() != 0 {
		t.Fatal("nil chrome trace returned data")
	}
	if err := ct.WriteJSON(&strings.Builder{}); err == nil {
		t.Fatal("nil chrome trace write succeeded")
	}
}

// refTrace is the Chrome trace builder as it was before records became
// pointer-free: one chromeEvent per record, rendered by encoding/json.
// It is kept verbatim as the oracle ChromeTrace's bytes must match.
type refTrace struct {
	events []chromeEvent
	open   map[int]openSpan
	named  map[int]bool // tids whose thread_name metadata was emitted
	spans  int          // completed X spans (tests, acceptance checks)
}

type openSpan struct {
	start sim.Cycles
	site  uint64
}

// chromeEvent is one trace-event record. Field names follow the Chrome
// trace-event format spec.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	CName string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func newRefTrace() *refTrace {
	return &refTrace{open: make(map[int]openSpan), named: make(map[int]bool)}
}

func (t *refTrace) Spans() int  { return t.spans }
func (t *refTrace) Events() int { return len(t.events) }

func (t *refTrace) Emit(e trace.Event) {
	t.ensureThread(e.Core)
	switch e.Kind {
	case trace.Begin:
		t.open[e.Core] = openSpan{start: e.Cycle, site: e.Info}
	case trace.Commit:
		t.closeSpan(e.Core, e.Cycle, "commit", "good")
	case trace.Abort:
		t.closeSpan(e.Core, e.Cycle, "abort", "terrible")
	case trace.NACK:
		t.instant(e, "nack", map[string]any{
			"line": fmt.Sprintf("%#x", e.Line), "holder": e.Other,
		})
	case trace.RemoteKill:
		args := map[string]any{"by": e.Other}
		if e.Line != trace.NoLine && e.Line != 0 {
			args["line"] = fmt.Sprintf("%#x", e.Line)
		}
		t.instant(e, "remote-kill", args)
	case trace.BarrierArrive:
		t.instant(e, fmt.Sprintf("barrier %d arrive", e.Info), nil)
	case trace.BarrierRelease:
		t.instant(e, fmt.Sprintf("barrier %d release", e.Info), nil)
	case trace.Suspend:
		t.instant(e, "suspend", nil)
	case trace.Resume:
		t.instant(e, "resume", nil)
	case trace.FaultOn, trace.FaultOff:
		name := "fault-on"
		if e.Kind == trace.FaultOff {
			name = "fault-off"
		}
		fe := e
		fe.Core = faultsTid
		t.ensureThread(faultsTid)
		t.instant(fe, fmt.Sprintf("%s %s", name, faults.Kind(e.Info)), map[string]any{
			"fault": faults.Kind(e.Info).String(), "core": e.Other,
		})
	case trace.StarveEscalate:
		t.instant(e, "starve-escalate", map[string]any{"consecAborts": e.Info})
	case trace.TokenAcquire:
		t.instant(e, "token-acquire", map[string]any{"consecAborts": e.Info})
	case trace.TokenRelease:
		t.instant(e, "token-release", nil)
	}
}

func (t *refTrace) closeSpan(core int, end sim.Cycles, outcome, cname string) {
	sp, ok := t.open[core]
	if !ok {
		return
	}
	delete(t.open, core)
	dur := float64(end - sp.start)
	if dur <= 0 {
		dur = 1 // zero-width spans are invisible in the viewer
	}
	t.events = append(t.events, chromeEvent{
		Name: fmt.Sprintf("tx site %d", sp.site), Cat: "tx", Ph: "X",
		Ts: float64(sp.start), Dur: dur, Tid: core, CName: cname,
		Args: map[string]any{"site": sp.site, "outcome": outcome},
	})
	t.spans++
}

func (t *refTrace) instant(e trace.Event, name string, args map[string]any) {
	t.events = append(t.events, chromeEvent{
		Name: name, Cat: "event", Ph: "i", Scope: "t",
		Ts: float64(e.Cycle), Tid: e.Core, Args: args,
	})
}

func (t *refTrace) CounterSample(cycle sim.Cycles, name string, value float64) {
	t.events = append(t.events, chromeEvent{
		Name: name, Ph: "C", Ts: float64(cycle),
		Args: map[string]any{"value": value},
	})
}

func (t *refTrace) CloseOpen(end sim.Cycles) {
	cores := make([]int, 0, len(t.open))
	for core := range t.open {
		cores = append(cores, core)
	}
	sort.Ints(cores)
	for _, core := range cores {
		t.closeSpan(core, end, "unfinished", "")
	}
}

func (t *refTrace) ensureThread(core int) {
	if t.named[core] {
		return
	}
	t.named[core] = true
	name := fmt.Sprintf("core %d", core)
	if core == faultsTid {
		name = "faults"
	}
	t.events = append(t.events, chromeEvent{
		Name: "thread_name", Ph: "M", Tid: core,
		Args: map[string]any{"name": name},
	})
}

func (t *refTrace) WriteJSON(w io.Writer) error {
	doc := struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{
		TraceEvents:     t.events,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"timeUnit": "1 us = 1 simulated cycle"},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// traceBuilder is what a trace stream drives: ChromeTrace and refTrace.
type traceBuilder interface {
	Emit(trace.Event)
	CounterSample(sim.Cycles, string, float64)
	CloseOpen(sim.Cycles)
	WriteJSON(io.Writer) error
	Events() int
	Spans() int
}

// counterNames need every kind of escaping encoding/json applies.
var counterNames = []string{
	"aborts", "mem.l1.hits", `a<b>&"c"`, "tab\tnew\nline\r", "ctl\x00\x01\x08\x0c\x1f\x7f",
	"sep\u2028\u2029", "bad\xffutf8\xc3", "日本語", `back\slash`, "",
}

// randomCounterValue covers encoding/json's float64 cases: zero and
// negative zero, fractions, the 1e-6 and 1e21 notation cutoffs and both
// sides of them, negatives, and the extremes.
func randomCounterValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return rng.Float64() * 1e-6 // below the cutoff
	case 3:
		return 1e-6
	case 4:
		return 1e21 * (1 + rng.Float64()*1e10)
	case 5:
		return 1e21
	case 6:
		return -rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
	case 7:
		return []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e20, 999999999999999999999}[rng.Intn(5)]
	case 8:
		return float64(rng.Intn(1000))
	default:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(30)-8))
	}
}

// randomCycle is mostly a small, rising clock, sometimes a jump back and
// sometimes a value past float64's exact-integer range.
func randomCycle(rng *rand.Rand, clock *sim.Cycles) sim.Cycles {
	switch rng.Intn(10) {
	case 0:
		return sim.Cycles(rng.Int63n(int64(*clock) + 1)) // back in time
	case 1:
		return rng.Uint64()
	case 2:
		return 1<<53 + sim.Cycles(rng.Intn(5))
	case 3:
		return math.MaxUint64
	default:
		*clock += sim.Cycles(rng.Intn(50))
		return *clock
	}
}

// driveRandom feeds the same randomized stream to every builder: all
// event kinds on cores -1..cores-1, lines 0, NoLine or random, unmatched
// commits, interleaved counter samples, and CloseOpen called or skipped.
func driveRandom(rng *rand.Rand, n, cores int, bs ...traceBuilder) {
	var clock sim.Cycles
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			name := counterNames[rng.Intn(len(counterNames))]
			cycle, v := randomCycle(rng, &clock), randomCounterValue(rng)
			for _, b := range bs {
				b.CounterSample(cycle, name, v)
			}
			continue
		}
		e := trace.Event{
			Cycle: randomCycle(rng, &clock),
			Core:  rng.Intn(cores+1) - 1,
			Other: rng.Intn(cores+1) - 1,
			Info:  uint64(rng.Intn(20)),
		}
		// Lifecycle kinds are drawn more often so spans open and close.
		if k := rng.Intn(20); k < 14 {
			e.Kind = trace.Kind(k)
		} else {
			e.Kind = []trace.Kind{trace.Begin, trace.Commit, trace.Abort}[k%3]
		}
		switch rng.Intn(4) {
		case 0:
			e.Line = 0
		case 1:
			e.Line = trace.NoLine
		default:
			e.Line = rng.Uint64() >> uint(rng.Intn(64))
		}
		if rng.Intn(8) == 0 {
			e.Info = rng.Uint64() // big sites and barrier ids; fault kinds out of range
		}
		for _, b := range bs {
			b.Emit(e)
		}
	}
	if rng.Intn(2) == 0 {
		end := randomCycle(rng, &clock)
		for _, b := range bs {
			b.CloseOpen(end)
		}
	}
}

// requireSameTrace fails unless got renders the same bytes, events and
// spans as the reference.
func requireSameTrace(t *testing.T, label string, got *ChromeTrace, want *refTrace) {
	t.Helper()
	var gb, wb bytes.Buffer
	gerr, werr := got.WriteJSON(&gb), want.WriteJSON(&wb)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: WriteJSON error = %v, reference error = %v", label, gerr, werr)
	}
	if got.Events() != want.Events() || got.Spans() != want.Spans() {
		t.Fatalf("%s: events/spans = %d/%d, reference %d/%d", label, got.Events(), got.Spans(), want.Events(), want.Spans())
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		g, w := gb.Bytes(), wb.Bytes()
		at := 0
		for at < len(g) && at < len(w) && g[at] == w[at] {
			at++
		}
		lo := max(at-60, 0)
		t.Fatalf("%s: output differs from the reference at byte %d:\n got: %q\nwant: %q",
			label, at, g[lo:min(at+60, len(g))], w[lo:min(at+60, len(w))])
	}
}

// TestChromeTraceMatchesReference: over randomized streams the
// pointer-free builder and its encoder write byte-for-byte what the
// reference's encoding/json rendering writes.
func TestChromeTraceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		got, want := NewChromeTrace(), newRefTrace()
		driveRandom(rng, rng.Intn(300), 1+rng.Intn(8), got, want)
		requireSameTrace(t, fmt.Sprintf("stream %d", i), got, want)
	}
}

func TestChromeTraceEmptyMatchesReference(t *testing.T) {
	requireSameTrace(t, "empty trace", NewChromeTrace(), newRefTrace())
	var sb strings.Builder
	if err := NewChromeTrace().WriteJSON(&sb); err != nil || !strings.HasPrefix(sb.String(), `{"traceEvents":null,`) {
		t.Fatalf("empty trace = %q, %v; want a null event list", sb.String(), err)
	}
}

// TestChromeTraceNonFiniteCounter: a NaN or infinite counter value has
// no JSON form; both renderers refuse it, and nothing is written.
func TestChromeTraceNonFiniteCounter(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, want := NewChromeTrace(), newRefTrace()
		for _, b := range []traceBuilder{got, want} {
			b.Emit(trace.Event{Cycle: 3, Core: 0, Kind: trace.Begin})
			b.CounterSample(5, "occupancy", 2)
			b.CounterSample(6, "occupancy", v)
			b.CloseOpen(9)
		}
		requireSameTrace(t, fmt.Sprint(v), got, want)
		var buf bytes.Buffer
		if err := got.WriteJSON(&buf); err == nil || buf.Len() != 0 {
			t.Fatalf("counter %v: err = %v, wrote %d bytes; want an error and nothing written", v, err, buf.Len())
		}
	}
}

// TestChromeTraceHotPathAllocs: with capacity grown, recording an event
// or a sample of a known counter allocates nothing, and rendering costs
// a fixed number of allocations however many records there are.
func TestChromeTraceHotPathAllocs(t *testing.T) {
	ct := NewChromeTrace()
	ct.CounterSample(0, "aborts", 0)
	ct.Emit(trace.Event{Core: 3, Kind: trace.Resume})
	ct.recs = make([]record, 0, 1<<16)

	begin := trace.Event{Cycle: 10, Core: 2, Kind: trace.Begin, Info: 7}
	for _, e := range []trace.Event{
		{Cycle: 20, Core: 2, Kind: trace.Commit, Info: 7},
		{Cycle: 20, Core: 2, Kind: trace.Abort, Info: 7},
		{Cycle: 12, Core: 1, Kind: trace.NACK, Line: 0x4f, Other: 2},
		{Cycle: 12, Core: 0, Kind: trace.RemoteKill, Line: 0x4f, Other: 2},
	} {
		if n := testing.AllocsPerRun(100, func() { ct.Emit(begin); ct.Emit(e) }); n != 0 {
			t.Errorf("Emit(begin, %s) allocates %v times", e.Kind, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ct.CounterSample(30, "aborts", 1.5) }); n != 0 {
		t.Errorf("CounterSample of a known counter allocates %v times", n)
	}

	fill := func(n int) *ChromeTrace {
		ct := NewChromeTrace()
		for i := 0; ct.Events() < n; i++ {
			c := sim.Cycles(i)
			switch i % 6 {
			case 0:
				ct.Emit(trace.Event{Cycle: c, Core: i % 4, Kind: trace.Begin, Info: uint64(i)})
			case 1:
				ct.Emit(trace.Event{Cycle: c, Core: (i - 1) % 4, Kind: trace.Commit})
			case 2:
				ct.Emit(trace.Event{Cycle: c, Core: i % 4, Kind: trace.NACK, Line: sim.Line(i), Other: 1})
			case 3:
				ct.Emit(trace.Event{Cycle: c, Core: i % 4, Kind: trace.FaultOn, Info: uint64(faults.MeshDelay), Other: -1})
			case 4:
				ct.Emit(trace.Event{Cycle: c, Core: i % 4, Kind: trace.BarrierArrive, Info: 1})
			case 5:
				ct.CounterSample(c, "mem.l1.hits", float64(i)/3)
			}
		}
		return ct
	}
	small, large := fill(1_000), fill(100_000)
	a := testing.AllocsPerRun(5, func() { small.WriteJSON(io.Discard) })
	b := testing.AllocsPerRun(5, func() { large.WriteJSON(io.Discard) })
	if a != b {
		t.Errorf("WriteJSON allocates %v times for %d records but %v for %d", a, small.Events(), b, large.Events())
	}
}
