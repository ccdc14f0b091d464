package htm

import (
	"unsafe"

	"suvtm/internal/signature"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
)

// This file parks stalled requesters. Under the Stall policy a NACKed
// access is re-run every period (its round trip plus RetryInterval)
// until the holder lets it through, and in a long stall nearly every
// retry repeats the one before it exactly. After such a repeat the
// requester leaves the ready heap ("parks"). It returns at its first
// unexecuted retry slot only when an event occurs that could change
// the outcome of that retry ("wakes"), and the retries it skipped are
// settled in one step with their exact effects, so every cycle, counter
// and memory word equals what the per-retry loop computes.
//
// A plain-stall retry of core c on line reads, and is changed only by:
//
//   - its conflict holder, the lowest-ID eager in-transaction core whose
//     signatures match the access: the holder's transaction ends or an
//     open-nested commit shrinks its signatures (wakeHeldBy), or an eager
//     core with a lower ID adds a line that makes its signature match
//     (sigTracked);
//   - the true/false-positive classification: the holder adds line to
//     its precise read or write set (sigTracked);
//   - c's doom and possible-cycle flags: every doom site and the flag's
//     rise call wakeIfParked;
//   - c's translation of line, which reads only c's own state (frozen
//     while c is parked), the redirect state and the summary signature
//     (the VersionManager.Translate contract): the summary's answer for
//     line flips, or the redirect layer logs line (parkSignals);
//   - the heap itself: it would drain, or its next event lies past
//     MaxCycles (wakeForHeap), so the watchdog trips on the same event.
//
// A retry's own effects are its counter deltas, one period of Stalled,
// one NACKsSent on the holder, the holder's possible-cycle flag (already
// up after the first retry, and cleared only when the holder's
// transaction ends) and at most one first-level redirect-table hit on
// line. Settling k skipped retries applies k copies of each.
//
// Parking is off when anything observes individual retries or changes
// the retry path: a tracer, metrics or forensics collector, a fault
// injector, a progress-ladder rung, the invariant checker, or the debug
// always-check switch. All park state lives in the Machine.

// parkAfter is how many consecutive NACKed attempts of one access run
// in full before the requester may park. Measuring an attempt and every
// park cost host time (a counter snapshot and diff, then a wake, a
// settle and the hooks' bookkeeping while anything is parked), which
// only a stall that keeps going repays. In the census (EXPERIMENTS.md,
// "Parked NACK retries"), 52% of stall episodes end within seven
// attempts but hold under 1% of the exact-repeat retries; parking from
// the fourth attempt measured and parked those short stalls too, and
// cost intruder under SUV-TM more than it saved. It must be at least
// 3: the two attempts before a park are measured against each other.
const parkAfter = 8

// counterWords is stats.Counters viewed as its uint64 fields (the type
// holds nothing else; TestCounterWordsCoverCounters pins it), so a
// retry's counter effects can be diffed and scaled field by field.
type counterWords = [unsafe.Sizeof(stats.Counters{}) / 8]uint64

func wordsOf(c *stats.Counters) *counterWords {
	return (*counterWords)(unsafe.Pointer(c))
}

// retryRec is one core's latest plain-stall NACK.
type retryRec struct {
	stall  int        // consecutive plain-stall NACKs of the op at pc
	pc     int        // the refused op
	at     sim.Cycles // the slot of the next attempt
	holder int
	line   sim.Line
	write  bool
	period sim.Cycles
	// timed marks an attempt measured from a snapshot that left the
	// shared redirect state and the summary untouched; its effects are
	// the counter deltas (parker.deltas) and, when touch is set, one
	// first-level redirect-table hit on line.
	timed bool
	touch bool
}

// parkSlot is a parked core's skipped-retry schedule.
type parkSlot struct {
	on   bool
	pos  int                         // index in parker.parked
	next sim.Cycles                  // first unexecuted retry slot
	idx  [signature.NumHashes]uint32 // the line's signature probe indices
	sum  bool                        // the summary's answer for the line at park
}

// parker is a machine's parking state.
type parker struct {
	on     bool
	stepID int // core being stepped: the tie-break of a wake's heap position

	// Snapshot of the stepping core taken when its attempt could park.
	snapped bool
	snap    counterWords
	snapL1  uint64 // its first-level redirect-table clock
	snapRd  uint64 // Redirect.Version
	snapSum uint64 // Summary.Mutations

	recs    []retryRec
	deltas  []counterWords // per core: its timed attempt's counter deltas
	slots   []parkSlot
	parked  []int  // parked core IDs
	sumMuts uint64 // Summary.Mutations when parked lines were last checked
	settled uint64 // retries settled instead of run
}

// SettledRetries returns how many NACK retries this run settled in bulk
// instead of re-running them. It is a diagnostic for tests and host
// benchmarks; the simulated result is the same whatever its value.
func (m *Machine) SettledRetries() uint64 { return m.pk.settled }

// startParking decides, once per run, whether retries may park.
func (m *Machine) startParking() {
	p := &m.pk
	p.on = m.tracer == nil && m.metrics == nil && m.fx == nil && m.faults == nil &&
		m.cfg.StarveThreshold == 0 && m.cfg.BoostAborts == 0 && m.cfg.HopelessAborts == 0 &&
		m.cfg.CheckInterval == 0 && !debugAlwaysCheck
	if p.on && p.recs == nil {
		p.recs = make([]retryRec, len(m.Cores))
		p.deltas = make([]counterWords, len(m.Cores))
		p.slots = make([]parkSlot, len(m.Cores))
		p.parked = make([]int, 0, len(m.Cores))
	}
}

// retrying reports whether c's memory access runs at the slot its last
// NACK scheduled. Every core has one heap entry and every step takes at
// least a cycle, so such an access on the same op is that NACK's retry.
func (m *Machine) retrying(c *Core) bool {
	return m.pk.on && m.pk.recs[c.ID].at == m.now
}

// snapAccess snapshots a retrying c before its access when the attempt
// could park: once the stall has run parkAfter-2 attempts, so the last
// two attempts before a park are measured against each other.
//
//suv:hotpath
func (m *Machine) snapAccess(c *Core) {
	p := &m.pk
	r := &p.recs[c.ID]
	p.snapped = r.stall >= parkAfter-2 && r.pc == c.PC
	if p.snapped {
		p.snap = *wordsOf(&c.Counters)
		p.snapL1 = m.Redirect.L1Clock(c.ID)
		p.snapRd = m.Redirect.Version()
		p.snapSum = m.Summary.Mutations()
	}
}

// retryLater schedules c's next attempt at the access holder refused,
// one period from now, unless c parks instead. plain is false when the
// NACK also doomed the holder.
//
//suv:hotpath
func (m *Machine) retryLater(c, holder *Core, line sim.Line, write bool, period sim.Cycles, plain bool) {
	if m.pk.on && plain && m.park(c, holder, line, write, period) {
		return
	}
	m.heap.Push(m.now+period, c.ID)
}

// park records c's plain-stall retry and parks c when the retry repeated
// the previous one exactly and the stall has run parkAfter attempts.
// Another core must be in the heap, or the park would only drain it.
//
//suv:hotpath
func (m *Machine) park(c, holder *Core, line sim.Line, write bool, period sim.Cycles) bool {
	p := &m.pk
	r := &p.recs[c.ID]
	cont := r.stall > 0 && r.at == m.now && r.pc == c.PC
	same := cont && r.holder == holder.ID && r.line == line && r.write == write && r.period == period
	if cont {
		r.stall++
	} else {
		r.stall, r.pc = 1, c.PC
	}
	r.at, r.holder, r.line, r.write, r.period = m.now+period, holder.ID, line, write, period
	// An attempt that differs from the previous one cannot park, and
	// leaves the next attempt nothing to compare with. One that repeats
	// it is a retry (cont), which always takes a fresh snapshot, so a
	// stale one left by an attempt that got through is never read.
	if !p.snapped || !same {
		r.timed = false
		return false
	}
	d := &p.deltas[c.ID]
	cur := wordsOf(&c.Counters)
	for i := range d {
		v := cur[i] - p.snap[i]
		same = same && v == d[i]
		d[i] = v
	}
	moved := m.Redirect.L1Clock(c.ID) - p.snapL1
	quiet := moved <= 1 && m.Redirect.Version() == p.snapRd && m.Summary.Mutations() == p.snapSum
	same = same && r.timed && r.touch == (moved == 1)
	r.timed, r.touch = quiet, moved == 1
	if !same || !quiet || r.stall < parkAfter || m.heap.Len() == 0 ||
		(holder.status != statusRunning && holder.status != statusAborting) {
		return false
	}
	s := &p.slots[c.ID]
	s.on, s.pos, s.next = true, len(p.parked), m.now+period
	signature.Indices(c.WriteSig.Kind(), line, c.WriteSig.Bits(), &s.idx)
	s.sum = m.Summary.Test(line)
	if len(p.parked) == 0 {
		m.Redirect.Watch(true)
		p.sumMuts = m.Summary.Mutations()
	}
	p.parked = append(p.parked, c.ID)
	return true
}

// wake returns parked core id to the heap after an event at position
// (at, by) in the heap's (cycle, core ID) order: the skipped retries
// whose slots precede the event are settled, and the core re-runs the
// first one after it in full.
//
//suv:hotpath
func (m *Machine) wake(id int, at sim.Cycles, by int) {
	p := &m.pk
	s := &p.slots[id]
	r := &p.recs[id]
	var k sim.Cycles
	if s.next <= at {
		k = (at-s.next)/r.period + 1
		if (at-s.next)%r.period == 0 && id > by {
			k-- // the slot at the event's cycle runs after it
		}
	}
	if k > 0 {
		m.settle(id, uint64(k))
	}
	last := p.parked[len(p.parked)-1]
	p.parked[s.pos] = last
	p.slots[last].pos = s.pos
	p.parked = p.parked[:len(p.parked)-1]
	s.on = false
	if len(p.parked) == 0 {
		m.Redirect.Watch(false)
	}
	r.at = s.next + k*r.period
	m.heap.Push(r.at, id)
}

// settle applies k skipped retries of parked core id.
//
//suv:hotpath
func (m *Machine) settle(id int, k uint64) {
	r := &m.pk.recs[id]
	c := m.Cores[id]
	w := wordsOf(&c.Counters)
	for i, d := range &m.pk.deltas[id] {
		w[i] += k * d
	}
	c.Breakdown.Add(stats.Stalled, sim.Cycles(k)*r.period)
	m.Cores[r.holder].Counters.NACKsSent += k
	if r.touch {
		m.Redirect.TouchL1(id, r.line, k)
	}
	m.pk.settled += k
}

// wakeIfParked wakes c when it is parked: a doom or a rising
// possible-cycle flag changes its next retry. Every machine doom site
// calls it; Core.DoomTx dooms the core being stepped, which is never
// parked.
func (m *Machine) wakeIfParked(c *Core) {
	if len(m.pk.parked) > 0 && m.pk.slots[c.ID].on {
		m.wake(c.ID, m.now, m.pk.stepID)
	}
}

// wakeHeldBy wakes every core parked on holder h, whose transaction
// just ended or whose signatures just shrank.
func (m *Machine) wakeHeldBy(h *Core) {
	p := &m.pk
	for i := 0; i < len(p.parked); {
		if id := p.parked[i]; p.recs[id].holder == h.ID {
			m.wake(id, m.now, p.stepID) // moves the last parked core to i
			continue
		}
		i++
	}
}

// sigTracked wakes the cores parked on an access whose retry c's new
// read (write=false) or write of line could change: c is the holder and
// line is the parked line (the classification may flip), or c is an
// eager core with a lower ID than the holder whose changed signature
// now matches the access (c becomes the holder). Only the signature c
// just added to can have started to match: the write signature
// conflicts with every access, the read signature only with writes.
//
//suv:hotpath
func (m *Machine) sigTracked(c *Core, line sim.Line, write bool) {
	p := &m.pk
	eager := m.VM.Mode(c) == ModeEager
	sig := c.ReadSig
	if write {
		sig = c.WriteSig
	}
	for i := 0; i < len(p.parked); {
		id := p.parked[i]
		r := &p.recs[id]
		if (r.holder == c.ID && r.line == line) ||
			(eager && c.ID < r.holder && (write || r.write) && sig.TestIdx(&p.slots[id].idx)) {
			m.wake(id, m.now, p.stepID)
			continue
		}
		i++
	}
}

// parkSignals wakes the parked cores whose translation the step just
// taken could have changed: the summary's answer for their line
// flipped, or the redirect layer logged their line.
//
//suv:hotpath
func (m *Machine) parkSignals() {
	p := &m.pk
	if n := m.Summary.Mutations(); n != p.sumMuts {
		p.sumMuts = n
		for i := 0; i < len(p.parked); {
			if id := p.parked[i]; m.Summary.Test(p.recs[id].line) != p.slots[id].sum {
				m.wake(id, m.now, p.stepID)
				continue
			}
			i++
		}
	}
	for _, line := range m.Redirect.Touched() {
		for i := 0; i < len(p.parked); {
			if id := p.parked[i]; p.recs[id].line == line {
				m.wake(id, m.now, p.stepID)
				continue
			}
			i++
		}
	}
	m.Redirect.ClearTouched()
}

// wakeForHeap returns every parked core to the heap when the heap would
// drain (at the position of the last step, so the parked cores retry on
// as the per-retry loop would) or when its next event lies past
// MaxCycles (after settling every retry up to MaxCycles, so the
// watchdog trips on the same event).
func (m *Machine) wakeForHeap() {
	at, _, ok := m.heap.Peek()
	switch {
	case !ok:
		m.wakeAll(m.now, m.pk.stepID)
	case m.cfg.MaxCycles > 0 && at > m.cfg.MaxCycles:
		m.wakeAll(m.cfg.MaxCycles, len(m.Cores))
	}
}

// wakeAll wakes every parked core at position (at, by).
func (m *Machine) wakeAll(at sim.Cycles, by int) {
	for len(m.pk.parked) > 0 {
		m.wake(m.pk.parked[0], at, by)
	}
}
