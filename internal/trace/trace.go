// Package trace records transaction-lifecycle events from a simulation
// into a bounded ring buffer: begins, commits, aborts, NACKs, barrier
// crossings, suspensions. Attach a Recorder to a machine to debug
// conflict pathologies ("who kept NACKing whom before this abort?")
// without drowning in per-access logs.
package trace

import (
	"fmt"
	"strings"

	"suvtm/internal/faults"
	"suvtm/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	Begin Kind = iota
	Commit
	Abort
	NACK
	RemoteKill
	BarrierArrive
	BarrierRelease
	Suspend
	Resume
	// FaultOn / FaultOff bracket an injected fault window (Info carries
	// the faults.Kind; Other is the targeted core or -1 for all).
	FaultOn
	FaultOff
	// StarveEscalate marks a starving core entering boosted backoff
	// (Info carries its consecutive-abort count).
	StarveEscalate
	// TokenAcquire / TokenRelease bracket hopeless-transaction mode: the
	// core holds the global serialization token and runs irrevocably.
	TokenAcquire
	TokenRelease
	numKinds
)

var kindNames = [numKinds]string{
	"begin", "commit", "abort", "nack", "remote-kill",
	"barrier-arrive", "barrier-release", "suspend", "resume",
	"fault-on", "fault-off", "starve-escalate", "token-acquire", "token-release",
}

// String names the kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NoLine marks an event whose conflicting line is unknown (a remote
// kill decided signature-to-signature with no precise witness).
const NoLine = ^sim.Line(0)

// Event is one recorded occurrence.
type Event struct {
	Cycle sim.Cycles
	Core  int
	Kind  Kind
	// Line is the conflicting line (NACK, remote-kill), NoLine when the
	// kill had no line witness, or zero for kinds without one.
	Line sim.Line
	// Other is the peer core (NACK holder, remote-kill committer), or -1.
	Other int
	// Info carries a kind-specific datum: transaction site for
	// begin/commit/abort, barrier id for barrier events.
	Info uint64
}

// String renders the event on one line.
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%10d core%-2d %-15s", e.Cycle, e.Core, e.Kind)
	//suv:nonexhaustive kinds without an extra payload render only the common prefix above
	switch e.Kind {
	case NACK:
		if e.Other < 0 {
			fmt.Fprintf(&sb, " line=%#x holder=injected", e.Line)
		} else {
			fmt.Fprintf(&sb, " line=%#x holder=core%d", e.Line, e.Other)
		}
	case FaultOn, FaultOff:
		if e.Other < 0 {
			fmt.Fprintf(&sb, " fault=%s core=*", faults.Kind(e.Info))
		} else {
			fmt.Fprintf(&sb, " fault=%s core=%d", faults.Kind(e.Info), e.Other)
		}
	case StarveEscalate:
		fmt.Fprintf(&sb, " consec-aborts=%d", e.Info)
	case TokenAcquire, TokenRelease:
		fmt.Fprintf(&sb, " consec-aborts=%d", e.Info)
	case RemoteKill:
		if e.Other < 0 {
			sb.WriteString(" by=?")
		} else {
			fmt.Fprintf(&sb, " by=core%d", e.Other)
		}
		if e.Line != NoLine && e.Line != 0 {
			fmt.Fprintf(&sb, " line=%#x", e.Line)
		}
	case BarrierArrive, BarrierRelease:
		fmt.Fprintf(&sb, " id=%d", e.Info)
	default:
		fmt.Fprintf(&sb, " site=%d", e.Info)
	}
	return sb.String()
}

// Sink receives every recorded event as it happens. Attach one with
// Recorder.Stream to export a full run (the ring buffer only retains a
// bounded tail) — e.g. into a Chrome trace-event file.
type Sink interface {
	Emit(Event)
}

// Recorder is a bounded ring buffer of events, optionally streaming to a
// Sink. A nil *Recorder is a valid no-op sink, so call sites never need
// nil checks beyond the method's own.
type Recorder struct {
	events []Event
	next   int
	filled bool
	total  uint64
	sink   Sink
}

// NewRecorder creates a recorder keeping the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{events: make([]Event, capacity)}
}

// Stream attaches a sink receiving every event as it is recorded,
// including those the ring buffer later overwrites.
func (r *Recorder) Stream(s Sink) *Recorder {
	r.sink = s
	return r
}

// Record appends an event; on a nil recorder it is a no-op.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if r.sink != nil {
		r.sink.Emit(e)
	}
	r.total++
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
}

// Total returns how many events were recorded (including overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.filled {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Dump renders the retained events, newest last.
func (r *Recorder) Dump() string {
	var sb strings.Builder
	for _, e := range r.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
