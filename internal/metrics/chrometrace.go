package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"suvtm/internal/faults"
	"suvtm/internal/sim"
	"suvtm/internal/trace"
)

// faultsTid is the pseudo-thread id carrying fault-window instants.
const faultsTid = -1

// ChromeTrace builds a Chrome trace-event JSON file (the format read by
// Perfetto and chrome://tracing) from streamed lifecycle events: one
// track (tid) per core carrying a complete "X" span for every
// transaction attempt from begin to commit or abort, instant events for
// NACKs, remote kills, barriers and suspensions, and counter tracks for
// every sampled time-series column when attached to a Collector.
//
// Timestamps map one simulated cycle to one microsecond, so the viewer's
// time ruler reads directly in cycles.
//
// Recording costs no allocation once the record slice has grown: every
// event becomes one fixed-size, pointer-free record, and every string in
// the file (span and instant names, hex lines, thread names) is built
// only when WriteJSON renders it. Event cores are core indices or -1.
type ChromeTrace struct {
	recs      []record
	tracks    []track // indexed by tid+1
	counters  []string
	counterID map[string]uint32 // index into counters
	spans     int               // completed X spans (tests, acceptance checks)
}

// track is one tid's state: whether its thread_name record is out, and
// the transaction span it has open.
type track struct {
	named bool
	open  bool
	start sim.Cycles
	site  uint64
}

// record is one trace event. It holds no pointer, so a run's worth of
// records costs the garbage collector nothing to scan.
type record struct {
	ts    sim.Cycles // event cycle, or a span's start
	dur   sim.Cycles // span length; 0 renders as 1
	arg   uint64     // site, line, barrier id, fault kind, abort count, or counter value bits
	other int64      // the event's peer core, or a counter's name index
	tid   int32
	kind  trace.Kind // Commit/Abort: a closed span; other event kinds: an instant
}

// Record kinds beyond the event kinds a record carries. They sit far
// above trace's own kinds so the two sets never meet.
const (
	kindThread     trace.Kind = 0xf0 + iota // M: thread_name metadata
	kindUnfinished                          // X: span still open at CloseOpen
	kindCounter                             // C: counter-track sample
)

// NewChromeTrace returns an empty trace builder.
func NewChromeTrace() *ChromeTrace { return &ChromeTrace{} }

// Spans returns the number of completed transaction spans recorded.
func (t *ChromeTrace) Spans() int {
	if t == nil {
		return 0
	}
	return t.spans
}

// Events returns the number of trace events accumulated.
func (t *ChromeTrace) Events() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

// Emit implements trace.Sink: it converts one lifecycle event into trace
// records. Begins open a per-core span; commits and aborts close it.
//
//suv:hotpath
func (t *ChromeTrace) Emit(e trace.Event) {
	if t == nil {
		return
	}
	tr := t.thread(e.Core)
	switch e.Kind {
	case trace.Begin:
		tr.open, tr.start, tr.site = true, e.Cycle, e.Info
	case trace.Commit, trace.Abort:
		if tr.open {
			t.closeSpan(tr, e.Core, e.Cycle, e.Kind)
		}
	case trace.NACK, trace.RemoteKill:
		t.instant(e.Kind, e.Core, e.Cycle, e.Line, e.Other)
	case trace.BarrierArrive, trace.BarrierRelease, trace.Suspend, trace.Resume,
		trace.StarveEscalate, trace.TokenAcquire, trace.TokenRelease:
		t.instant(e.Kind, e.Core, e.Cycle, e.Info, 0)
	case trace.FaultOn, trace.FaultOff:
		// Fault windows render on a dedicated pseudo-track so injected
		// adversity lines up visually with the per-core transaction spans.
		t.thread(faultsTid)
		t.instant(e.Kind, faultsTid, e.Cycle, e.Info, e.Other)
	}
}

// closeSpan records the complete "X" event for tr's open span.
func (t *ChromeTrace) closeSpan(tr *track, tid int, end sim.Cycles, kind trace.Kind) {
	tr.open = false
	t.recs = append(t.recs, record{kind: kind, tid: int32(tid), ts: tr.start, dur: end - tr.start, arg: tr.site})
	t.spans++
}

// instant records a thread-scoped instant event.
func (t *ChromeTrace) instant(kind trace.Kind, tid int, cycle sim.Cycles, arg uint64, other int) {
	t.recs = append(t.recs, record{kind: kind, tid: int32(tid), ts: cycle, arg: arg, other: int64(other)})
}

// CounterSample emits a counter-track event ("C") for one sampled
// time-series value.
//
//suv:hotpath
func (t *ChromeTrace) CounterSample(cycle sim.Cycles, name string, value float64) {
	if t == nil {
		return
	}
	id, ok := t.counterID[name]
	if !ok {
		id = t.intern(name)
	}
	t.recs = append(t.recs, record{kind: kindCounter, ts: cycle, arg: math.Float64bits(value), other: int64(id)})
}

// intern registers a counter-track name the first time it is sampled.
func (t *ChromeTrace) intern(name string) uint32 {
	if t.counterID == nil {
		t.counterID = make(map[string]uint32)
	}
	id := uint32(len(t.counters))
	t.counters = append(t.counters, name)
	t.counterID[name] = id
	return id
}

// CloseOpen closes every still-open span at the final cycle (a
// transaction in flight when the run ended, or a trace cut short), in
// ascending core order.
func (t *ChromeTrace) CloseOpen(end sim.Cycles) {
	if t == nil {
		return
	}
	for i := range t.tracks {
		if tr := &t.tracks[i]; tr.open {
			t.closeSpan(tr, i-1, end, kindUnfinished)
		}
	}
}

// thread returns tid's track, recording its thread_name metadata the
// first time the tid appears.
func (t *ChromeTrace) thread(tid int) *track {
	if tid+1 >= len(t.tracks) {
		t.tracks = append(t.tracks, make([]track, tid+2-len(t.tracks))...)
	}
	tr := &t.tracks[tid+1]
	if !tr.named {
		tr.named = true
		t.recs = append(t.recs, record{kind: kindThread, tid: int32(tid)})
	}
	return tr
}

// WriteJSON renders the accumulated events as a Chrome trace file. The
// bytes are those encoding/json writes for the trace-event document:
// fields in declaration order with empty ones omitted, arg keys sorted,
// numbers in its float64 notation, strings HTML-escaped, a null event
// list for an empty trace and a trailing newline. A NaN or infinite
// counter value is an error, and then nothing is written.
func (t *ChromeTrace) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("metrics: nil chrome trace")
	}
	for i := range t.recs {
		if r := &t.recs[i]; r.kind == kindCounter {
			if v := math.Float64frombits(r.arg); math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metrics: chrome trace counter %q at cycle %d has no JSON form: %v", t.counters[r.other], r.ts, v)
			}
		}
	}
	// A bufio.Writer's errors are sticky: Flush reports the first one.
	bw := bufio.NewWriterSize(w, 64<<10)
	if len(t.recs) == 0 {
		bw.WriteString(`{"traceEvents":null`)
	} else {
		buf := make([]byte, 0, 256)
		sep := `{"traceEvents":[`
		for i := range t.recs {
			buf = t.appendEvent(append(buf[:0], sep...), &t.recs[i])
			bw.Write(buf)
			sep = ","
		}
		bw.WriteByte(']')
	}
	bw.WriteString(`,"displayTimeUnit":"ms","otherData":{"timeUnit":"1 us = 1 simulated cycle"}}` + "\n")
	return bw.Flush()
}

// appendEvent renders one record as a trace-event object: name, cat, ph,
// ts, dur, pid, tid, s, cname, args, each only when set.
func (t *ChromeTrace) appendEvent(b []byte, r *record) []byte {
	//suv:nonexhaustive every other record is an instant: a begin only opens a span
	switch r.kind {
	case kindThread:
		b = append(b, `{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(r.tid), 10)
		if r.tid == faultsTid {
			return append(b, `,"args":{"name":"faults"}}`...)
		}
		b = append(b, `,"args":{"name":"core `...)
		b = strconv.AppendInt(b, int64(r.tid), 10)
		return append(b, `"}}`...)
	case kindCounter:
		b = append(b, `{"name":"`...)
		b = appendEscaped(b, t.counters[r.other])
		b = append(b, `","ph":"C","ts":`...)
		b = appendCycles(b, r.ts)
		b = append(b, `,"pid":0,"tid":0,"args":{"value":`...)
		b = appendFloat(b, math.Float64frombits(r.arg))
		return append(b, "}}"...)
	case trace.Commit, trace.Abort, kindUnfinished:
		return appendSpan(b, r)
	default:
		return appendInstant(b, r)
	}
}

// appendSpan renders a transaction attempt as a complete ("X") event.
func appendSpan(b []byte, r *record) []byte {
	b = append(b, `{"name":"tx site `...)
	b = strconv.AppendUint(b, r.arg, 10)
	b = append(b, `","cat":"tx","ph":"X","ts":`...)
	b = appendCycles(b, r.ts)
	b = append(b, `,"dur":`...)
	b = appendCycles(b, max(r.dur, 1)) // zero-width spans are invisible in the viewer
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(r.tid), 10)
	switch r.kind {
	case trace.Commit:
		b = append(b, `,"cname":"good","args":{"outcome":"commit","site":`...)
	case trace.Abort:
		b = append(b, `,"cname":"terrible","args":{"outcome":"abort","site":`...)
	case kindUnfinished:
		b = append(b, `,"args":{"outcome":"unfinished","site":`...)
	default:
		panic(fmt.Sprintf("metrics: span record of kind %d", r.kind))
	}
	b = strconv.AppendUint(b, r.arg, 10)
	return append(b, "}}"...)
}

// appendInstant renders a thread-scoped instant ("i") event.
func appendInstant(b []byte, r *record) []byte {
	b = append(b, `{"name":"`...)
	//suv:nonexhaustive the other instants are named after their event kind
	switch r.kind {
	case trace.BarrierArrive, trace.BarrierRelease:
		b = append(b, "barrier "...)
		b = strconv.AppendUint(b, r.arg, 10)
		if r.kind == trace.BarrierArrive {
			b = append(b, " arrive"...)
		} else {
			b = append(b, " release"...)
		}
	case trace.FaultOn, trace.FaultOff:
		b = append(b, r.kind.String()...)
		b = append(b, ' ')
		b = appendEscaped(b, faults.Kind(r.arg).String())
	default:
		b = append(b, r.kind.String()...)
	}
	b = append(b, `","cat":"event","ph":"i","ts":`...)
	b = appendCycles(b, r.ts)
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(r.tid), 10)
	b = append(b, `,"s":"t"`...)
	//suv:nonexhaustive the remaining instants carry no args
	switch r.kind {
	case trace.NACK:
		b = append(b, `,"args":{"holder":`...)
		b = strconv.AppendInt(b, r.other, 10)
		b = appendLine(b, r.arg)
	case trace.RemoteKill:
		b = append(b, `,"args":{"by":`...)
		b = strconv.AppendInt(b, r.other, 10)
		if r.arg != trace.NoLine && r.arg != 0 {
			// The killing line, when the doom decision had a precise
			// witness — the viewer shows which address killed the span.
			b = appendLine(b, r.arg)
		}
	case trace.FaultOn, trace.FaultOff:
		b = append(b, `,"args":{"core":`...)
		b = strconv.AppendInt(b, r.other, 10)
		b = append(b, `,"fault":"`...)
		b = appendEscaped(b, faults.Kind(r.arg).String())
		b = append(b, '"')
	case trace.StarveEscalate, trace.TokenAcquire:
		b = append(b, `,"args":{"consecAborts":`...)
		b = strconv.AppendUint(b, r.arg, 10)
	default:
		return append(b, '}')
	}
	return append(b, "}}"...)
}

// appendLine renders a cache line as a "line" arg in %#x form.
func appendLine(b []byte, line sim.Line) []byte {
	b = append(b, `,"line":"0x`...)
	b = strconv.AppendUint(b, line, 16)
	return append(b, '"')
}

// appendCycles renders a cycle count the way encoding/json renders it
// after conversion to float64: exact integers below 2⁵³ print as such.
func appendCycles(b []byte, c sim.Cycles) []byte {
	if c < 1<<53 {
		return strconv.AppendUint(b, c, 10)
	}
	return appendFloat(b, float64(c))
}

// appendFloat renders a finite float64 in encoding/json's notation: the
// shortest digits that round-trip, positional for zero and for
// magnitudes in [1e-6, 1e21), exponential otherwise with the exponent
// unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendEscaped appends s's JSON string body as encoding/json writes it
// by default: the quote, the backslash and control characters escaped
// (\b, \f, \n, \r and \t by name), the HTML-sensitive <, > and & as
// \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028 and U+2029
// escaped.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		i++
		start = i
	}
	return append(b, s[start:]...)
}
