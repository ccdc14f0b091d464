package suvd

import (
	"fmt"
	"sync"
)

// State is the daemon's degradation level. The ladder only ever moves
// one step at a time, and every transition is recorded and exported.
type State uint8

const (
	// Normal: all valid work is admitted (subject to queue and client
	// caps).
	Normal State = iota
	// ShedUncached: sustained overload; jobs that would simulate (not
	// fully servable from the run cache) are shed with 503. Cached work
	// — the cheap kind — is still admitted.
	ShedUncached
	// CacheOnly: deeper overload; only fully cache-resident jobs are
	// admitted. The simulator is effectively paused for new work while
	// the backlog drains.
	CacheOnly
	// Draining: SIGTERM/Close. Nothing is admitted; in-flight jobs
	// finish, queued jobs are left to the journal for the next start.
	Draining
)

// String renders the state for /healthz, /readyz, logs and metrics.
func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case ShedUncached:
		return "shed-uncached"
	case CacheOnly:
		return "cache-only"
	case Draining:
		return "draining"
	default:
		panic(fmt.Sprintf("suvd: unknown state %d", uint8(s)))
	}
}

// Transition is one recorded ladder movement.
type Transition struct {
	Seq    int    `json:"seq"`
	From   string `json:"from"`
	To     string `json:"to"`
	Reason string `json:"reason"`
}

// Queue-occupancy ratios that build and relieve shedding pressure.
const (
	highWater = 0.75
	lowWater  = 0.25
)

// shedLadder decides the daemon's degradation state from queue
// occupancy. It is count-based, not wall-clock-based: pressure is a
// saturating counter fed by admission-time occupancy observations —
// EscalateAfter consecutive sightings at or above highWater step the
// ladder up, EscalateAfter consecutive sightings at or below lowWater
// step it down — so tests (and replayed chaos scenarios) drive it
// deterministically with a known request sequence.
type shedLadder struct {
	mu            sync.Mutex
	state         State
	pressure      int // >0 building toward escalation, <0 toward relief
	escalateAfter int
	transitions   []Transition
}

func newShedLadder(cfg Config) *shedLadder {
	return &shedLadder{escalateAfter: cfg.EscalateAfter}
}

// observe feeds one admission-time occupancy reading (queued/capacity,
// where a reading taken at a full-queue rejection is >= 1) and returns
// the state admission should apply.
func (l *shedLadder) observe(occupancy float64) State {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state == Draining {
		return Draining
	}
	switch {
	case occupancy >= highWater:
		if l.pressure < 0 {
			l.pressure = 0
		}
		l.pressure++
	case occupancy <= lowWater:
		if l.pressure > 0 {
			l.pressure = 0
		}
		l.pressure--
	default:
		l.pressure = 0
	}
	if l.pressure >= l.escalateAfter && l.state < CacheOnly {
		l.stepLocked(l.state+1, fmt.Sprintf("occupancy >= %.2f for %d admissions", highWater, l.pressure))
		l.pressure = 0
	} else if l.pressure <= -l.escalateAfter && l.state > Normal {
		l.stepLocked(l.state-1, fmt.Sprintf("occupancy <= %.2f for %d admissions", lowWater, -l.pressure))
		l.pressure = 0
	}
	return l.state
}

// drain forces the terminal state; there is no way back.
func (l *shedLadder) drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != Draining {
		l.stepLocked(Draining, "drain requested")
	}
}

func (l *shedLadder) stepLocked(to State, reason string) {
	l.transitions = append(l.transitions, Transition{
		Seq: len(l.transitions) + 1, From: l.state.String(), To: to.String(), Reason: reason,
	})
	l.state = to
}

// State returns the current degradation state.
func (l *shedLadder) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Transitions returns a copy of the recorded ladder history.
func (l *shedLadder) Transitions() []Transition {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Transition(nil), l.transitions...)
}
