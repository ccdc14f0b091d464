package htm

import (
	"suvtm/internal/forensics"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
	"suvtm/internal/trace"
	"suvtm/internal/workload"
)

// workloadOp aliases the trace op type for brevity in the access path.
type workloadOp = workload.Op

// doBegin opens a transaction frame: register checkpoint, site record,
// timestamp assignment (kept across retries so aborted transactions age
// and eventually win conflicts) and the scheme's begin work.
func (m *Machine) doBegin(c *Core, site uint32) {
	if m.parkAtBegin(c) {
		// Another core runs in hopeless-transaction mode: this outermost
		// begin waits for the serialization token to release.
		return
	}
	frame := TxFrame{BeginPC: c.PC, Site: site, Regs: c.Regs}
	if len(c.Frames) > 0 {
		// Nested frame: snapshot the signatures and precise sets so an
		// open-nested commit can restore the parent's isolation exactly.
		frame.savedReadSig = c.ReadSig.Clone()
		frame.savedWriteSig = c.WriteSig.Clone()
		frame.savedReadSet = c.readSet.Clone()
		frame.savedWriteSet = c.writeSet.Clone()
	}
	c.Frames = append(c.Frames, frame)
	if len(c.Frames) == 1 {
		if !c.hasTimestamp {
			c.Timestamp = m.now
			c.hasTimestamp = true
		}
		c.attemptStart = m.now
		c.Counters.TxStarted++
		m.tracer.Record(trace.Event{Cycle: m.now, Core: c.ID, Kind: trace.Begin, Other: -1, Info: uint64(site)})
	}
	lat := m.VM.Begin(m, c)
	m.finishOp(c, lat)
}

// doCommit closes the innermost frame. Nested commits merge into the
// parent; the outermost commit runs lazy arbitration when needed, flushes
// the attempt's deferred cycles into Trans, and releases isolation.
// c.commitAdvance (set by step) is how many ops the completing commit
// skips — 1 for commit_transaction, 1+N for an open commit with an
// N-op compensation block.
func (m *Machine) doCommit(c *Core) {
	if !c.InTx() {
		panic("htm: commit outside a transaction")
	}
	if c.Depth() > 1 {
		lat := m.VM.CommitNested(m, c)
		top := len(c.Frames) - 1
		// A closed nested commit keeps its children's compensations
		// pending on the parent.
		if len(c.Frames[top].comps) > 0 {
			c.Frames[top-1].comps = append(c.Frames[top-1].comps, c.Frames[top].comps...)
		}
		c.Frames = c.Frames[:top]
		m.advanceCommit(c, lat)
		return
	}

	if m.modeOf(c) == ModeLazy {
		if !m.lazyArbitrate(c) {
			return // waiting for the token or for eager conflicts to clear
		}
		m.killLazyReaders(c)
		mergeLat := m.cfg.LazyArbitration + m.VM.CommitOuter(m, c)
		m.commitBusyUntil = m.now + mergeLat
		c.Breakdown.Add(stats.Committing, mergeLat)
		m.sealCommit(c)
		c.PC += c.commitAdvance
		m.requeue(c, mergeLat)
		return
	}

	// An eager commit makes this transaction's writes durable, so lazy
	// transactions that speculatively read (or wrote) those lines can no
	// longer serialize and must abort — including ones whose cached
	// copies were already evicted, which invalidation-based detection
	// cannot see.
	m.killLazyReaders(c)
	lat := m.VM.CommitOuter(m, c)
	if lat == 0 {
		lat = 1
	}
	c.attemptCyc += lat
	m.sealCommit(c)
	c.PC += c.commitAdvance
	m.requeue(c, lat)
}

// advanceCommit charges lat, skips past the commit op (and any
// compensation block) and reschedules.
func (m *Machine) advanceCommit(c *Core, lat sim.Cycles) {
	if lat == 0 {
		lat = 1
	}
	m.chargeTx(c, lat)
	c.PC += c.commitAdvance
	m.requeue(c, lat)
}

// doCommitOpen publishes the innermost frame immediately (open nesting):
// the version manager makes the frame's effects durable, the parent's
// signatures are restored from the frame's begin snapshot (releasing the
// child's isolation), and the compensation block is registered with the
// parent. An outermost open commit is an ordinary commit whose
// compensation can never run.
func (m *Machine) doCommitOpen(c *Core, compLen int) {
	if !c.InTx() {
		panic("htm: open commit outside a transaction")
	}
	if c.Depth() == 1 {
		m.doCommit(c)
		return
	}
	lat := m.VM.CommitOpen(m, c)
	top := len(c.Frames) - 1
	frame := c.Frames[top]
	c.ReadSig.CopyFrom(frame.savedReadSig)
	c.WriteSig.CopyFrom(frame.savedWriteSig)
	c.readSet = frame.savedReadSet
	c.writeSet = frame.savedWriteSet
	if len(m.pk.parked) > 0 {
		m.wakeHeldBy(c) // the child's isolation is released
	}
	parent := &c.Frames[top-1]
	parent.comps = append(parent.comps, frame.comps...)
	if compLen > 0 {
		parent.comps = append(parent.comps, compRange{pc: c.PC + 1, n: compLen})
	}
	c.Frames = c.Frames[:top]
	m.advanceCommit(c, lat)
}

// killLazyReaders dooms every active lazy transaction whose read or
// write signature intersects committer's write signature (committer
// wins).
func (m *Machine) killLazyReaders(committer *Core) {
	for _, h := range m.Cores {
		if h == committer || m.modeOf(h) != ModeLazy || h.abortPending {
			continue
		}
		if h.ID == m.tokenCore {
			// The serialization-token holder is irrevocable; it was the
			// only transaction allowed to run, so a committer here can only
			// be the holder itself (already excluded) or a non-parked core
			// draining a pre-grant commit — which must not kill the holder.
			continue
		}
		if committer.WriteSig.Intersects(h.ReadSig) || committer.WriteSig.Intersects(h.WriteSig) {
			// Attribute the kill to a concrete line when the precise sets
			// share one (the deterministic minimum common line); a doom
			// with no witness is a pure signature false positive. The
			// witness is observational only, so it is skipped entirely
			// when nothing will consume it.
			line, precise := forensics.NoLine, false
			if m.fxWants() {
				line, precise = commitWitness(committer, h)
			}
			h.doomBy(committer.ID, committer.txSite(), line, forensics.CauseCommitKill, true, precise)
			m.wakeIfParked(h)
		}
	}
}

// lazyArbitrate acquires the commit token and validates the committer
// against active eager transactions (whose isolation must be respected).
// It returns false after scheduling a retry when the commit cannot
// proceed yet.
func (m *Machine) lazyArbitrate(c *Core) bool {
	if m.now < m.commitBusyUntil {
		wait := m.commitBusyUntil - m.now
		c.Breakdown.Add(stats.Committing, wait)
		c.status = statusLazyCommitWait
		m.heap.Push(m.commitBusyUntil, c.ID)
		return false
	}
	for _, h := range m.Cores {
		if h == c || m.modeOf(h) != ModeEager {
			continue
		}
		if c.WriteSig.Intersects(h.ReadSig) || c.WriteSig.Intersects(h.WriteSig) {
			c.Breakdown.Add(stats.Committing, m.cfg.RetryInterval)
			c.Counters.NACKsReceived++
			h.Counters.NACKsSent++
			if m.fx.Enabled() {
				// A commit-time validation stall is a signature decision
				// like any other NACK: classify it against the precise
				// sets and attribute the retry interval to the witness
				// line.
				line, precise := commitWitness(c, h)
				ev := forensics.NACKEvent{
					Cycle: m.now, Requester: c.ID, Holder: h.ID,
					Line: line, Kind: forensics.Write,
					Cause:   forensics.CauseLazyValidation,
					ReqSite: c.txSite(), HoldSite: h.txSite(),
					SigHit: true, Precise: precise,
					Stall: m.cfg.RetryInterval,
				}
				if line != forensics.NoLine {
					ev.Sharers = m.Dir.HolderCount(line)
				}
				if !precise {
					ev.AliasRate = maxf(h.WriteSig.AliasRate(), h.ReadSig.AliasRate())
				}
				m.fx.NACK(ev)
			}
			c.status = statusLazyCommitWait
			m.heap.Push(m.now+m.cfg.RetryInterval, c.ID)
			return false
		}
	}
	return true
}

// sealCommit finalizes a committed outermost transaction: deferred
// attempt cycles become Trans, overflow statistics are recorded, and all
// transactional state is released.
func (m *Machine) sealCommit(c *Core) {
	m.tracer.Record(trace.Event{Cycle: m.now, Core: c.ID, Kind: trace.Commit, Other: -1, Info: uint64(c.Frames[0].Site)})
	if m.obs != nil {
		m.obs.onCommit(m, c)
	}
	m.closeIsolationWindow(c)
	if len(m.pk.parked) > 0 {
		m.wakeHeldBy(c)
	}
	c.Breakdown.Add(stats.Trans, c.attemptCyc)
	c.Counters.TxCommitted++
	if c.overflowedL1 {
		c.Counters.CacheOverflowTx++
	}
	c.Frames = c.Frames[:len(c.Frames)-1]
	c.clearTxState()
	c.hasTimestamp = false
	c.consecAborts = 0
	c.escalated = false
	c.lastCommitAt = m.now
	if m.tokenCore == c.ID {
		m.releaseToken(c)
	}
}

// startAbort begins the roll-back window: the scheme undoes the
// transaction's effects on memory now, but the core's isolation
// (signatures) stays in force until the window closes — the mechanism
// behind the repair pathology of Figure 1. lead is latency already
// charged by the caller (the NACKed request that triggered the abort)
// that still has to elapse before the roll-back starts.
func (m *Machine) startAbort(c *Core, lead sim.Cycles) {
	m.tracer.Record(trace.Event{Cycle: m.now, Core: c.ID, Kind: trace.Abort, Other: -1, Info: uint64(c.Frames[0].Site)})
	if m.obs != nil {
		m.obs.onAbort(m, c)
	}
	m.fxAbort(c) // reads attemptCyc and the doom provenance before both reset
	c.Counters.TxAborted++
	if c.overflowedL1 {
		c.Counters.CacheOverflowTx++
	}
	lat := m.VM.Abort(m, c)
	if lat == 0 {
		lat = 1
	}
	c.Breakdown.Add(stats.Wasted, c.attemptCyc)
	c.attemptCyc = 0
	c.Breakdown.Add(stats.Aborting, lat)
	c.status = statusAborting
	c.abortEndAt = m.now + lead + lat
	m.heap.Push(c.abortEndAt, c.ID)
}

// finishAbort closes the roll-back window: isolation is released, the
// register checkpoint and PC are restored to the outermost begin — via
// the compensating actions of any open-nested children that committed
// inside the doomed transaction — and a randomized exponential backoff
// delays the retry.
func (m *Machine) finishAbort(c *Core) {
	// Isolation was held through the whole roll-back window (the repair
	// pathology): it releases only now.
	m.closeIsolationWindow(c)
	if len(m.pk.parked) > 0 {
		m.wakeHeldBy(c)
	}
	outer := c.Frames[0]
	var comps []compRange
	for _, f := range c.Frames {
		comps = append(comps, f.comps...)
	}
	c.Regs = outer.Regs
	c.PC = outer.BeginPC
	c.clearTxState()
	c.status = statusRunning
	c.consecAborts++
	if len(comps) > 0 {
		// Most recent compensation first (reverse registration order).
		for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
			comps[i], comps[j] = comps[j], comps[i]
		}
		c.afterCompPC = outer.BeginPC
		c.compQueue = comps[1:]
		c.PC = comps[0].pc
		c.compRemaining = comps[0].n
	}

	// Forward-progress escalation (progress.go): a struggle that reaches
	// BoostAborts consecutive aborts counts one starvation escalation and
	// enters boosted backoff; past HopelessAborts (or StarveThreshold
	// cycles of age) it competes for the serialization token, and a grant
	// retries immediately — the token already cleared the field.
	if m.cfg.BoostAborts > 0 && c.consecAborts >= m.cfg.BoostAborts && !c.escalated {
		c.escalated = true
		c.Counters.StarveEscalations++
		m.tracer.Record(trace.Event{Cycle: m.now, Core: c.ID, Kind: trace.StarveEscalate,
			Other: -1, Info: uint64(c.consecAborts)})
	}
	m.maybeEscalate(c)
	if m.tokenCore == c.ID {
		m.heap.Push(m.now+1, c.ID)
		return
	}
	window := backoffWindow(m.cfg.BackoffBase, m.cfg.BackoffMax, c.consecAborts, m.cfg.BoostAborts)
	backoff := window/2 + sim.Cycles(c.RNG.Uint64n(uint64(window/2+1)))
	c.Breakdown.Add(stats.Backoff, backoff)
	m.heap.Push(m.now+backoff, c.ID)
}

// doBarrier blocks the core until every core reaches barrier id, then
// releases all of them on the next cycle.
func (m *Machine) doBarrier(c *Core, id uint32) {
	bs := m.barriers[id]
	if bs == nil {
		bs = &barrierState{}
		m.barriers[id] = bs
	}
	bs.arrived++
	m.tracer.Record(trace.Event{Cycle: m.now, Core: c.ID, Kind: trace.BarrierArrive, Other: -1, Info: uint64(id)})
	if bs.arrived < m.participants {
		c.status = statusBarrier
		c.barrierID = id
		c.barrierAt = m.now
		bs.waiting = append(bs.waiting, c.ID)
		return
	}
	// Last arriver: release everyone at now+1.
	m.tracer.Record(trace.Event{Cycle: m.now, Core: c.ID, Kind: trace.BarrierRelease, Other: -1, Info: uint64(id)})
	release := m.now + 1
	for _, wid := range bs.waiting {
		w := m.Cores[wid]
		w.Breakdown.Add(stats.Barrier, release-w.barrierAt)
		w.status = statusRunning
		w.PC++
		if w.atEnd() {
			w.status = statusFinished
			w.finishedAt = release
			m.finished++
		} else {
			m.heap.Push(release, w.ID)
		}
	}
	c.Breakdown.Add(stats.Barrier, 1)
	c.PC++
	m.requeue(c, 1)
	delete(m.barriers, id)
}

// closeIsolationWindow accounts a finished attempt's writer isolation
// window (Section I: the key factor of contention the paper optimizes).
func (m *Machine) closeIsolationWindow(c *Core) {
	if c.windowStart == 0 {
		return
	}
	if m.now > c.windowStart {
		c.Counters.IsoWindowCycles += m.now - c.windowStart
	}
	c.Counters.IsoWindows++
	c.windowStart = 0
}
