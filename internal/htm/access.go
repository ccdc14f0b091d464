package htm

import (
	"suvtm/internal/forensics"
	"suvtm/internal/mem"
	"suvtm/internal/signature"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
)

var debugAlwaysCheck = false

// translatedAddr rebases addr into the translated target line, keeping
// the in-line offset.
func translatedAddr(target sim.Line, addr sim.Addr) sim.Addr {
	return sim.AddrOf(target) | (addr & (sim.LineBytes - 1))
}

// doLoad executes a load op: SUV address translation, coherence fetch
// with eager conflict detection on the program address, then the
// scheme's value read.
func (m *Machine) doLoad(c *Core, op workloadOp) {
	if m.retrying(c) {
		m.snapAccess(c)
	}
	if m.injectedNACK(c) {
		return
	}
	line := sim.LineOf(op.Addr)
	target, tlat := m.VM.Translate(m, c, line, false)
	flat, holder := m.acquire(c, target, line, false)
	if holder != nil {
		m.handleNACK(c, holder, line, tlat+flat, false)
		return
	}
	val, vlat := m.VM.Load(m, c, op.Addr, translatedAddr(target, op.Addr))
	c.Regs[op.Reg] = val
	if c.TxActive() {
		c.trackRead(line)
		if len(m.pk.parked) > 0 {
			m.sigTracked(c, line, false)
		}
	}
	m.finishOp(c, tlat+flat+vlat)
}

// doStore executes a store op. Eager transactions and non-transactional
// code acquire exclusive permission first; lazy transactions fetch a
// shared copy (conflict-checked against eager holders only) and let the
// scheme buffer or redirect the value.
func (m *Machine) doStore(c *Core, addr sim.Addr, val sim.Word) {
	if m.retrying(c) {
		m.snapAccess(c)
	}
	if m.injectedNACK(c) {
		return
	}
	line := sim.LineOf(addr)
	lazy := c.TxActive() && m.modeOf(c) == ModeLazy
	target, tlat := m.VM.Translate(m, c, line, true)

	var flat sim.Cycles
	var holder *Core
	if lazy {
		flat, holder = m.acquire(c, target, line, false) // shared fill, invisible write
	} else {
		flat, holder = m.acquire(c, target, line, true)
	}
	if holder != nil {
		m.handleNACK(c, holder, line, tlat+flat, true)
		return
	}
	if !c.TxActive() && m.tokenCore >= 0 && m.tokenCore != c.ID {
		// The serialization-token holder is irrevocable: a durable store
		// that would doom it (strong isolation against its lazy
		// speculation) stalls and retries instead, before the value lands.
		h := m.Cores[m.tokenCore]
		if m.modeOf(h) == ModeLazy && !h.abortPending &&
			(h.ReadSig.Test(line) || h.WriteSig.Test(line)) {
			m.handleNACK(c, h, line, tlat+flat, true)
			return
		}
	}

	finalLine, slat := m.VM.Store(m, c, addr, val)
	if finalLine != target {
		// The version manager moved the data (SUV first store or
		// redirect-back): install the new line exclusively. The data
		// arrived with the fetch above, so this is bookkeeping only.
		m.takeOwnership(c, finalLine)
	}
	if c.TxActive() {
		if c.windowStart == 0 {
			c.windowStart = m.now + 1 // first write acquisition opens the window
		}
		c.trackWrite(line)
		if len(m.pk.parked) > 0 {
			m.sigTracked(c, line, true)
		}
		c.writtenTargets.Add(finalLine)
	} else {
		// A non-transactional store is immediately durable: lazy
		// transactions that speculatively read or wrote the line cannot
		// serialize around it (strong isolation). The serialization-token
		// holder cannot be doomed here: the pre-store guard above stalled
		// this storer before its value could land.
		var idx [signature.NumHashes]uint32
		signature.Indices(c.ReadSig.Kind(), line, c.ReadSig.Bits(), &idx)
		for _, h := range m.Cores {
			if h != c && m.modeOf(h) == ModeLazy && !h.abortPending &&
				(h.ReadSig.TestIdx(&idx) || h.WriteSig.TestIdx(&idx)) {
				// The doom is a signature decision at a known line; the
				// victim's precise sets say whether it was true sharing or
				// aliasing.
				precise := h.readSet.Has(line) || h.writeSet.Has(line)
				h.doomBy(c.ID, forensics.NoSite, line, forensics.CauseNonTxStore, true, precise)
				m.wakeIfParked(h)
			}
		}
	}
	if !lazy && finalLine == target {
		c.L1.MarkDirty(finalLine)
	}
	m.finishOp(c, tlat+flat+slat)
}

// acquire obtains target in c's L1 — exclusively when write is true —
// performing eager conflict detection on confLine at the directory.
// On a conflict it returns the latency spent plus the NACKing core and
// leaves all coherence state unchanged.
func (m *Machine) acquire(c *Core, target, confLine sim.Line, write bool) (sim.Cycles, *Core) {
	state, hit := c.L1.Peek(target)
	if hit && (!write || state == mem.Modified) && !debugAlwaysCheck {
		c.L1.Lookup(target) // LRU touch
		c.Counters.L1Hits++
		return m.cfg.L1Latency, nil
	}
	if hit && (!write || state == mem.Modified) {
		if holder := m.conflictHolder(c, confLine, write); holder != nil {
			return m.cfg.L1Latency, holder
		}
		c.L1.Lookup(target)
		c.Counters.L1Hits++
		return m.cfg.L1Latency, nil
	}

	// Coherence request to the line's home directory slice, routed
	// through the protocol retry layer when a fault window delays or
	// duplicates this core's messages.
	home := m.Mesh.HomeTile(target)
	lat := m.meshRequestLatency(c, m.Mesh.RoundTrip(c.ID, home)+m.cfg.DirLatency)
	if holder := m.conflictHolder(c, confLine, write); holder != nil {
		return lat, holder
	}
	if !hit {
		c.Counters.L1Misses++
	}

	owner := m.Dir.Owner(target)
	switch {
	case owner >= 0 && owner != c.ID:
		// Cache-to-cache transfer from the modified owner.
		oc := m.Cores[owner]
		lat += m.Mesh.RoundTrip(home, owner) + m.cfg.L1Latency
		if write {
			m.invalidateCopy(oc, target)
		} else {
			oc.L1.SetState(target, mem.Shared)
			m.Dir.Downgrade(target, owner)
			c.Counters.Writebacks++ // owner writes the dirty line back
		}
	case !hit:
		if _, l2hit := m.L2.Lookup(target); l2hit {
			lat += m.cfg.L2Latency
			c.Counters.L2Hits++
		} else {
			lat += m.cfg.MemLatency
			c.Counters.L2Misses++
			m.L2.Insert(target, mem.Shared, false)
		}
	default:
		// Upgrade from Shared: data already present, invalidations only.
	}
	if write {
		// The sharer set is unchanged since the pre-switch directory read:
		// the owner branch only drops the owner (never a sharer), so the
		// zero-alloc iteration here sees exactly the pre-fill sharers.
		var worst sim.Cycles
		m.Dir.ForEachSharer(target, func(s int) {
			if s == c.ID {
				return
			}
			if l := m.Mesh.RoundTrip(home, s); l > worst {
				worst = l
			}
			m.invalidateCopy(m.Cores[s], target)
		})
		lat += worst
		m.Dir.SetOwner(target, c.ID)
		m.installL1(c, target, mem.Modified)
	} else {
		m.Dir.AddSharer(target, c.ID)
		if hit {
			c.L1.Lookup(target)
		} else {
			m.installL1(c, target, mem.Shared)
		}
	}
	return lat, nil
}

// invalidateCopy removes target from victim's L1 (a remote GETM or an
// ownership move). Lazy transactions that speculatively used the line
// are NOT doomed here: an in-flight write is not durable yet, so their
// reads may still serialize before it. Conflicting lazy speculation dies
// at the writer's commit, when killLazyReaders broadcasts against the
// victims' signatures (which, unlike cached copies, survive eviction).
func (m *Machine) invalidateCopy(victim *Core, target sim.Line) {
	if _, present := victim.L1.Peek(target); !present {
		m.Dir.Drop(target, victim.ID)
		return
	}
	wasDirty, _ := victim.L1.Invalidate(target)
	if wasDirty {
		victim.Counters.Writebacks++
	}
	victim.Counters.Invalidations++
	m.Dir.Drop(target, victim.ID)
}

// installL1 fills target into c's L1, handling the victim: dirty victims
// write back, speculative victims signal transactional overflow to the
// scheme, and victims belonging to the current write-set flag Table V
// data overflow.
func (m *Machine) installL1(c *Core, target sim.Line, state mem.LineState) {
	v := c.L1.Insert(target, state, true)
	if !v.Valid {
		return
	}
	if v.Dirty {
		c.Counters.Writebacks++
		m.L2.Insert(v.Line, mem.Shared, false)
	}
	m.Dir.Drop(v.Line, c.ID)
	if c.InTx() {
		if c.writtenTargets.Has(v.Line) {
			c.overflowedL1 = true
		}
	}
	if v.Spec {
		c.Counters.SpecLineEvicted++
		m.VM.OnSpecEviction(m, c, v.Line)
	}
}

// takeOwnership installs finalLine exclusively in c's L1 and invalidates
// stale copies elsewhere (pool-line reuse) without charging latency: the
// data travelled with the triggering fetch.
func (m *Machine) takeOwnership(c *Core, finalLine sim.Line) {
	owner := m.Dir.Owner(finalLine)
	if owner >= 0 && owner != c.ID {
		m.invalidateCopy(m.Cores[owner], finalLine)
	}
	m.Dir.ForEachSharer(finalLine, func(s int) {
		if s != c.ID {
			m.invalidateCopy(m.Cores[s], finalLine)
		}
	})
	m.Dir.SetOwner(finalLine, c.ID)
	m.installL1(c, finalLine, mem.Modified)
	c.L1.MarkDirty(finalLine)
}

// conflictHolder returns the first core whose eager transaction's
// signatures conflict with an access to line (write: read or write set;
// read: write set only). Lazy transactions are invisible here — they
// resolve at commit.
func (m *Machine) conflictHolder(requester *Core, line sim.Line, write bool) *Core {
	// Every core's signatures share one shape, so hash the line once and
	// probe each filter with the precomputed indices.
	var idx [signature.NumHashes]uint32
	signature.Indices(requester.WriteSig.Kind(), line, requester.WriteSig.Bits(), &idx)
	for _, h := range m.Cores {
		if h == requester || !h.InTx() {
			continue
		}
		if m.VM.Mode(h) != ModeEager {
			continue
		}
		if h.WriteSig.TestIdx(&idx) || (write && h.ReadSig.TestIdx(&idx)) {
			return h
		}
	}
	return nil
}

// handleNACK implements the Stall policy with LogTM's distributed
// possible-cycle detection: the requester stalls and retries; a holder
// that NACKs an older transaction raises its possible-cycle flag; a
// requester whose own flag is raised aborts itself when NACKed by an
// older transaction.
func (m *Machine) handleNACK(c, holder *Core, line sim.Line, lat sim.Cycles, write bool) {
	c.Counters.NACKsReceived++
	holder.Counters.NACKsSent++
	// The signature reported this conflict; the holder's precise sets say
	// whether it was true sharing or Bloom aliasing.
	precise := holder.InWriteSet(line) || (write && holder.InReadSet(line))
	if !precise {
		c.Counters.FalsePositive++
	}
	requesterEager := c.TxActive() && m.modeOf(c) == ModeEager
	plain := true
	if m.cfg.Policy == PolicyOlderWins && requesterEager &&
		m.older(c, holder) && !holder.abortPending && holder.status == statusRunning &&
		holder.ID != m.tokenCore {
		// Alternative policy: the receiving core aborts its transaction
		// to guarantee the older requester's execution (counted as a
		// remote abort when the holder processes it). The serialization-
		// token holder is irrevocable and never doomed. The signature
		// decision is classified by this NACK event, so the doom carries
		// sigHit=false to keep it counted once.
		holder.doomBy(c.ID, c.txSite(), line, forensics.CauseOlderWins, false, precise)
		m.wakeIfParked(holder)
		plain = false
	} else if requesterEager {
		if m.older(c, holder) && !holder.possibleCyc {
			holder.possibleCyc = true
			m.wakeIfParked(holder) // its own stall may now end in a cycle abort
		}
		if c.possibleCyc && m.older(holder, c) && c.ID != m.tokenCore {
			// Possible-cycle self-abort — except for the token holder,
			// which only ever stalls (the cores it waits on are doomed or
			// parked, so the stall drains; aborting it would forfeit the
			// very guarantee the token exists to provide).
			m.obs.nack(c, holder, line, write, lat, forensics.CauseCycle, precise)
			c.doom = doomInfo{
				killer: holder.ID, killerSite: holder.txSite(), line: line,
				cause: forensics.CauseCycle, sigHit: false, precise: precise,
			}
			c.Breakdown.Add(stats.Stalled, lat)
			c.Counters.CycleAborts++
			m.startAbort(c, lat)
			return
		}
	}
	m.obs.nack(c, holder, line, write, lat+m.cfg.RetryInterval, forensics.CauseEagerNACK, precise)
	if c.InTx() {
		// A stall is another lost round: it may push this transaction
		// over a starvation threshold.
		m.maybeEscalate(c)
	}
	c.Breakdown.Add(stats.Stalled, lat+m.cfg.RetryInterval)
	m.retryLater(c, holder, line, write, lat+m.cfg.RetryInterval, plain)
}

// older reports whether a's transaction is older than b's (smaller
// timestamp; ties break on core id). Cores without a transactional
// timestamp are treated as youngest.
func (m *Machine) older(a, b *Core) bool {
	if !a.hasTimestamp {
		return false
	}
	if !b.hasTimestamp {
		return true
	}
	if a.Timestamp != b.Timestamp {
		return a.Timestamp < b.Timestamp
	}
	return a.ID < b.ID
}

// AccessPrivate models a cache access to a core-private line (undo log,
// software structures) with no conflict detection: L1 hit, or fill from
// L2/memory.
func (m *Machine) AccessPrivate(c *Core, line sim.Line, write bool) sim.Cycles {
	state, hit := c.L1.Peek(line)
	if hit && (!write || state == mem.Modified) {
		c.L1.Lookup(line)
		c.Counters.L1Hits++
		return m.cfg.L1Latency
	}
	c.Counters.L1Misses++
	lat := m.cfg.L1Latency
	if _, l2hit := m.L2.Lookup(line); l2hit {
		lat += m.cfg.L2Latency
		c.Counters.L2Hits++
	} else {
		lat += m.cfg.MemLatency
		c.Counters.L2Misses++
		m.L2.Insert(line, mem.Shared, false)
	}
	if write {
		// Register exclusive ownership so later remote GETMs invalidate
		// this copy; without it a stale Modified line could take the
		// no-check L1-hit fast path and breach isolation.
		m.Dir.ForEachSharer(line, func(s int) {
			if s != c.ID {
				m.invalidateCopy(m.Cores[s], line)
			}
		})
		if o := m.Dir.Owner(line); o >= 0 && o != c.ID {
			m.invalidateCopy(m.Cores[o], line)
		}
		m.Dir.SetOwner(line, c.ID)
		m.installL1(c, line, mem.Modified)
		c.L1.MarkDirty(line)
	} else {
		m.Dir.AddSharer(line, c.ID)
		m.installL1(c, line, mem.Shared)
	}
	return lat
}

// SetDebugAlwaysCheck forces every access through the directory conflict
// check (bisection aid for isolation-invariant bugs; tests only).
func SetDebugAlwaysCheck(v bool) { debugAlwaysCheck = v }
