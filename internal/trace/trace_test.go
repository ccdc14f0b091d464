package trace

import (
	"strings"
	"testing"
)

func TestRingBufferRetention(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Cycle: uint64(i), Core: i, Kind: Begin})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != uint64(6+i) {
			t.Fatalf("event %d cycle = %d, want %d (chronological order)", i, e.Cycle, 6+i)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestPartialFill(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Event{Cycle: 1, Kind: Commit})
	r.Record(Event{Cycle: 2, Kind: Abort})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Fatalf("events = %v", evs)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: NACK}) // must not panic
	if r.Total() != 0 || r.Events() != nil {
		t.Fatal("nil recorder returned data")
	}
}

func TestEventsPreSizesPartialCopy(t *testing.T) {
	r := NewRecorder(1024)
	r.Record(Event{Cycle: 1, Kind: Begin})
	r.Record(Event{Cycle: 2, Kind: Commit})
	evs := r.Events()
	if len(evs) != 2 || cap(evs) != 2 {
		t.Fatalf("partial copy len=%d cap=%d, want an exact-size copy", len(evs), cap(evs))
	}
	// The copy must be detached from the ring: later records don't alias.
	r.Record(Event{Cycle: 3, Kind: Abort})
	if evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Fatalf("snapshot mutated: %v", evs)
	}
}

// collectSink accumulates streamed events for tests.
type collectSink struct{ got []Event }

func (s *collectSink) Emit(e Event) { s.got = append(s.got, e) }

// TestStreamSinkSeesUnfilteredStream: the sink receives every event,
// including those the ring buffer has already overwritten.
func TestStreamSinkSeesUnfilteredStream(t *testing.T) {
	sink := &collectSink{}
	r := NewRecorder(2).Stream(sink)
	r.Record(Event{Cycle: 1, Kind: Begin})
	r.Record(Event{Cycle: 2, Kind: Abort})
	r.Record(Event{Cycle: 3, Kind: Commit})
	if len(sink.got) != 3 {
		t.Fatalf("sink saw %d events, want all 3", len(sink.got))
	}
	if r.Total() != 3 || len(r.Events()) != 2 {
		t.Fatalf("total = %d, retained = %d, want 3 and 2", r.Total(), len(r.Events()))
	}
	if sink.got[0].Kind != Begin || sink.got[2].Kind != Commit {
		t.Fatalf("sink order wrong: %v", sink.got)
	}
}

func TestEventStrings(t *testing.T) {
	cases := []Event{
		{Cycle: 5, Core: 2, Kind: NACK, Line: 0x40, Other: 7},
		{Cycle: 6, Core: 1, Kind: Begin, Info: 3},
		{Cycle: 7, Core: 0, Kind: RemoteKill, Other: 4},
		{Cycle: 8, Core: 3, Kind: BarrierArrive, Info: 1},
	}
	wants := []string{"holder=core7", "site=3", "by=core4", "id=1"}
	for i, e := range cases {
		if !strings.Contains(e.String(), wants[i]) {
			t.Errorf("event %d = %q, want substring %q", i, e.String(), wants[i])
		}
	}
	// A remote kill with no known committer must not render a bogus core.
	unknown := Event{Cycle: 9, Core: 5, Kind: RemoteKill, Other: -1}
	if s := unknown.String(); !strings.Contains(s, "by=?") || strings.Contains(s, "core-1") {
		t.Errorf("unknown killer = %q, want by=?", s)
	}
	// A remote kill with a precise doom witness renders the killing line;
	// one without (NoLine or zero) stays silent.
	witnessed := Event{Cycle: 10, Core: 2, Kind: RemoteKill, Other: 4, Line: 0x4f}
	if s := witnessed.String(); !strings.Contains(s, "line=0x4f") {
		t.Errorf("witnessed kill = %q, want line=0x4f", s)
	}
	unwitnessed := Event{Cycle: 11, Core: 2, Kind: RemoteKill, Other: 4, Line: NoLine}
	if s := unwitnessed.String(); strings.Contains(s, "line=") {
		t.Errorf("unwitnessed kill = %q, want no line", s)
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind has empty string")
	}
	dump := NewRecorder(2)
	dump.Record(cases[0])
	if !strings.Contains(dump.Dump(), "nack") {
		t.Error("Dump missing event")
	}
}
