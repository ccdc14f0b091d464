package htm

import (
	"suvtm/internal/faults"
	"suvtm/internal/forensics"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
	"suvtm/internal/trace"
)

// This file is the machine's forward-progress and fault-injection layer:
// the escalation ladder that replaces the old single-threshold watchdog
// (boosted backoff -> global serialization token -> watchdog backstop),
// the application of injected fault windows to the substrate, and the
// periodic invariant checker.
//
// Token-mode correctness argument: granting the token dooms every other
// in-transaction core, and any core that later reaches an outermost
// begin parks until release. Doomed cores abort through the normal path
// (releasing their signatures), suspended ones as soon as their filler
// work resumes them, so every conflict against the holder drains in
// bounded time. The holder itself is immune to the three remote-doom
// sites and to possible-cycle self-abort — it can only stall, never die.
// The holder therefore commits, releasing the token and waking the
// parked cores.

// SetFaults attaches a fault injector driving a chaos plan (nil runs
// fault-free). Attach before Run.
func (m *Machine) SetFaults(in *faults.Injector) { m.faults = in }

// FaultStats returns the injector's activity counters (zero when no
// injector is attached).
func (m *Machine) FaultStats() faults.Stats { return m.faults.Stats() }

// PoolReclaimPenalty returns the current per-allocation software
// reclamation cost while the preserved pool is exhausted (0 otherwise).
// Version managers charge it on stores whose StoreOutcome reports
// PoolReclaim.
func (m *Machine) PoolReclaimPenalty() sim.Cycles { return m.poolPenalty }

// advanceFaults moves the injector to now and applies every window that
// opened or closed: level-type faults (signature saturation, redirect
// pressure, pool exhaustion) are recomputed from the full open-window
// set, and each transition is traced.
func (m *Machine) advanceFaults(now sim.Cycles) {
	trans := m.faults.Advance(now)
	if len(trans) == 0 {
		return
	}
	for _, t := range trans {
		kind := trace.FaultOff
		if t.Opened {
			kind = trace.FaultOn
		}
		core := t.Event.Core
		traceCore := core
		if traceCore < 0 {
			traceCore = 0 // the recorder needs a core; Other carries the real target
		}
		m.obs.event(kind, traceCore, 0, core, uint64(t.Event.Kind))
	}
	// Recompute level state from the surviving window set (several
	// windows of one kind may overlap; only the union matters).
	for _, c := range m.Cores {
		sat := m.faults.SaturatedFor(c.ID)
		c.ReadSig.SetSaturated(sat)
		c.WriteSig.SetSaturated(sat)
	}
	m.Summary.SetSaturated(m.faults.SaturatedAny())
	m.Redirect.SetPressure(m.faults.Pressured())
	pen, exhausted := m.faults.PoolExhausted()
	m.Redirect.Pool().SetExhausted(exhausted)
	m.poolPenalty = pen
}

// injectedNACK refuses c's memory access when an injected NACK storm
// covers it: the access is charged a stalled round-trip and retried,
// exactly like a real NACK but with no holder. The serialization-token
// holder is immune — an irrevocable transaction's requests must land —
// which is also what lets time-based escalation rescue a core starved by
// a long storm. Returns true when the access was refused.
func (m *Machine) injectedNACK(c *Core) bool {
	if !m.faults.NACKFor(c.ID) || m.tokenCore == c.ID {
		return false
	}
	c.Counters.InjectedNACKs++
	c.Counters.NACKsReceived++
	lat := m.cfg.DirLatency + m.cfg.RetryInterval
	// No holder and no signature: an injected refusal never enters the
	// true-vs-false-positive accounting, only the stall profile.
	m.obs.nack(c, nil, forensics.NoLine, false, lat, forensics.CauseInjected, false)
	c.Breakdown.Add(stats.Stalled, lat)
	m.maybeEscalate(c)
	m.heap.Push(m.now+lat, c.ID)
	return true
}

// meshRequestLatency returns the effective latency of a directory
// request with nominal cost base, routing it through the retry protocol
// when a fault window delays or duplicates c's messages.
func (m *Machine) meshRequestLatency(c *Core, base sim.Cycles) sim.Cycles {
	if m.faults == nil {
		return base
	}
	injected := m.faults.MeshDelayFor(c.ID)
	var dupCost sim.Cycles
	if m.faults.MeshDupFor(c.ID) {
		dupCost = m.cfg.DirLatency
	}
	if injected == 0 && dupCost == 0 {
		return base
	}
	before := m.Dir.RetryStats
	lat := m.Dir.Deliver(base, injected, dupCost)
	c.Counters.MeshTimeouts += m.Dir.RetryStats.Timeouts.Value() - before.Timeouts.Value()
	c.Counters.MeshRetries += m.Dir.RetryStats.Retries.Value() - before.Retries.Value()
	c.Counters.MeshDuplicates += m.Dir.RetryStats.Duplicates.Value() - before.Duplicates.Value()
	return lat
}

// starving reports whether c's current transaction has crossed a
// hopelessness threshold: too many consecutive aborts, or too long
// inside one transaction without committing (the timestamp is kept
// across retries, so it dates the whole struggle).
func (m *Machine) starving(c *Core) bool {
	if m.cfg.HopelessAborts > 0 && c.consecAborts >= m.cfg.HopelessAborts {
		return true
	}
	return m.cfg.StarveThreshold > 0 && c.hasTimestamp &&
		m.now >= c.Timestamp+m.cfg.StarveThreshold
}

// maybeEscalate grants c the global serialization token if it is
// starving and the token is free. Called wherever a transaction loses
// another round: after an abort, on a NACK stall, on an injected NACK.
func (m *Machine) maybeEscalate(c *Core) {
	if m.tokenCore >= 0 || !m.starving(c) {
		return
	}
	m.grantToken(c)
}

// grantToken enters hopeless-transaction mode for c: every other
// in-transaction core is doomed (it aborts through the normal path,
// releasing its isolation), and cores reaching an outermost begin park
// until release. c runs irrevocably — see the immunity guards in
// handleNACK, doStore and killLazyReaders.
func (m *Machine) grantToken(c *Core) {
	m.tokenCore = c.ID
	c.Counters.TokenGrants++
	m.obs.event(trace.TokenAcquire, c.ID, 0, -1, uint64(c.consecAborts))
	for _, h := range m.Cores {
		if h != c && h.InTx() && !h.abortPending {
			// A token kill is forward-progress policy, not a data
			// conflict: no line, no signature decision.
			h.doomBy(c.ID, c.txSite(), forensics.NoLine, forensics.CauseToken, false, false)
			m.wakeIfParked(h)
		}
	}
}

// releaseToken exits hopeless-transaction mode (the holder committed):
// parked cores wake on the next cycle and resume their begins.
func (m *Machine) releaseToken(c *Core) {
	m.tokenCore = -1
	m.obs.event(trace.TokenRelease, c.ID, 0, -1, 0)
	wake := m.now + 1
	for _, wid := range m.tokenWaiting {
		w := m.Cores[wid]
		if w.status != statusTokenWait {
			continue
		}
		w.Breakdown.Add(stats.Stalled, wake-w.tokenParkAt)
		w.status = statusRunning
		m.heap.Push(wake, w.ID)
	}
	m.tokenWaiting = m.tokenWaiting[:0]
}

// parkAtBegin parks c when another core holds the serialization token
// and c is about to open an outermost transaction. In-transaction and
// suspended cores are never parked — they were doomed at grant (or will
// defer the doom until resume) and must keep stepping to drain. Returns
// true when the core parked.
func (m *Machine) parkAtBegin(c *Core) bool {
	if m.tokenCore < 0 || m.tokenCore == c.ID || c.InTx() {
		return false
	}
	c.status = statusTokenWait
	c.tokenParkAt = m.now
	m.tokenWaiting = append(m.tokenWaiting, c.ID)
	return true
}

// backoffWindow computes the randomization window for the retry after
// the consecAborts-th consecutive abort: the classic clamped exponential
// (shift capped at 8, window capped at max), escalating to boosted
// windows beyond max once consecAborts reaches boostAt (0 disables the
// boost). base = 0 disables backoff entirely.
func backoffWindow(base, max sim.Cycles, consecAborts, boostAt int) sim.Cycles {
	if base == 0 || consecAborts <= 0 {
		return 0
	}
	if boostAt > 0 && consecAborts >= boostAt && max > 0 {
		// Boosted backoff: a starving transaction's rivals are beaten by
		// widening the window beyond the normal cap, doubling per further
		// abort up to 64x.
		extra := uint(consecAborts - boostAt + 1)
		if extra > 6 {
			extra = 6
		}
		return max << extra
	}
	shift := consecAborts - 1
	if shift > 8 {
		shift = 8
	}
	window := base << uint(shift)
	if max > 0 && window > max {
		window = max
	}
	return window
}

// maybeCheckInvariants runs the periodic cross-structure audit when due:
// coherence (directory vs. L1 states) and redirect (tables vs. pool vs.
// transient journals). The first violation aborts the run with a typed
// *InvariantError.
func (m *Machine) maybeCheckInvariants(at sim.Cycles) error {
	if m.cfg.CheckInterval == 0 || at < m.nextCheckAt {
		return nil
	}
	m.nextCheckAt = at + m.cfg.CheckInterval
	if err := m.CheckCoherence(); err != nil {
		return &InvariantError{At: at, Check: "coherence", Err: err}
	}
	if err := m.Redirect.Audit(); err != nil {
		return &InvariantError{At: at, Check: "redirect", Err: err}
	}
	return nil
}
