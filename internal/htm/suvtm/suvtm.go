// Package suvtm implements the paper's contribution: the Single-Update
// Version-management scheme. Each transactional store is redirected to a
// line in the preserved pool (or back to the original address — the
// redirect-back optimization), the mapping is journaled in the redirect
// table, and commit and abort are flash state transitions over the
// journal (Figure 4(e)/(f)): exactly one data update ever happens,
// whichever way the transaction ends. Every memory access is filtered
// through the redirect summary signature (plus the write signature for
// the transaction's own transient entries) before paying for a table
// walk.
package suvtm

import (
	"suvtm/internal/htm"
	"suvtm/internal/redirect"
	"suvtm/internal/sim"
)

// VM is the SUV version manager. It can serve as a standalone eager
// scheme (SUV-TM) or as the version-management half of DynTM (D+S).
type VM struct{}

// New returns a SUV version manager.
func New() *VM { return &VM{} }

// Name implements htm.VersionManager.
func (v *VM) Name() string { return "SUV-TM" }

// Init implements htm.VersionManager; the machine already owns the
// redirect tables and summary signature.
func (v *VM) Init(m *htm.Machine) {}

// Mode implements htm.VersionManager: standalone SUV-TM runs eager (the
// paper implements the eager case; DynTM wraps this VM for lazy use).
func (v *VM) Mode(c *htm.Core) htm.ExecMode {
	if !c.InTx() {
		return htm.ModeNone
	}
	return htm.ModeEager
}

// Begin opens a redirect journal frame.
func (v *VM) Begin(m *htm.Machine, c *htm.Core) sim.Cycles {
	m.Redirect.BeginFrame(c.ID)
	return 2
}

// Translate filters the access through the redirect summary signature
// (and the core's own write signature, which covers its transient
// entries) and walks the redirect table only on a positive answer. This
// runs for every access, transactional or not — the cost of strong
// isolation the paper quantifies in Section V-C.
func (v *VM) Translate(m *htm.Machine, c *htm.Core, line sim.Line, write bool) (sim.Line, sim.Cycles) {
	own := c.TxActive() && c.WriteSig.Test(line)
	if !own && !m.Summary.Test(line) {
		c.Counters.SummaryFiltered++
		return line, 0
	}
	out := m.Redirect.Lookup(c.ID, line)
	c.Counters.RedirectLookups++
	switch out.Level {
	case redirect.LevelL1:
		c.Counters.RedirectL1Hits++
	case redirect.LevelL2:
		c.Counters.RedirectL2Hits++
	case redirect.LevelMemory:
		c.Counters.RedirectMemLookups++
	case redirect.LevelAbsent:
		if !own {
			c.Counters.SummaryFalsePos++
		}
	}
	return out.Target, out.Latency
}

// Load reads from the translated address.
func (v *VM) Load(m *htm.Machine, c *htm.Core, addr, targetAddr sim.Addr) (sim.Word, sim.Cycles) {
	return m.Memory.Read(targetAddr), 0
}

// Store performs the single update: transactional stores transition the
// redirect entry (new transient-add, redirect-back, or reuse) and write
// the value at the redirected location; non-transactional stores write
// through the committed mapping.
func (v *VM) Store(m *htm.Machine, c *htm.Core, addr sim.Addr, val sim.Word) (sim.Line, sim.Cycles) {
	line := sim.LineOf(addr)
	if !c.TxActive() {
		target := m.Redirect.Resolve(c.ID, line)
		m.Memory.Write(translatedAddr(target, addr), val)
		return target, 0
	}
	out := m.Redirect.TxStore(c.ID, line)
	if out.NeedFill {
		// The normal write-miss fill deposits the original line's content
		// at the redirected location — not an extra data movement.
		m.Memory.CopyLine(out.FillFrom, out.Target)
	}
	m.Memory.Write(translatedAddr(out.Target, addr), val)
	if out.NewEntry {
		c.Counters.RedirectEntriesAdd++
		c.TLB.IndexOf(sim.AddrOf(out.Target))
	}
	if out.RedirectBack {
		c.Counters.RedirectBacks++
	}
	lat := out.ExtraLatency
	if out.PoolReclaim {
		// The preserved pool was exhausted: the allocation was served by
		// software reclamation of a committed pool page — slow, but the
		// transaction still proceeds (graceful degradation rather than a
		// hard failure).
		c.Counters.PoolReclaimStalls++
		lat += m.PoolReclaimPenalty()
	}
	return out.Target, lat
}

// CommitOuter flash-converts the journaled entries (Figure 4(e)) and
// updates the redirect summary signature. Only a transaction that
// overflowed the first-level table pays a software pass.
func (v *VM) CommitOuter(m *htm.Machine, c *htm.Core) sim.Cycles {
	lat := m.Config().CommitLatency
	if m.Redirect.TxOverflowed(c.ID) {
		// The first-level table overflowed (entry pressure or plain
		// capacity): the transaction completes through the software-walked
		// slow path instead of failing.
		c.Counters.TableOverflowTx++
		c.Counters.GracefulDegradation++
		lat += m.Config().MemLatency
	}
	for _, ev := range m.Redirect.CommitFrame(c.ID) {
		if ev.Added {
			m.Summary.Add(ev.Line)
		} else if ev.Removed {
			m.Summary.Delete(ev.Line)
		}
	}
	return lat
}

// CommitNested merges the innermost journal frame into its parent.
func (v *VM) CommitNested(m *htm.Machine, c *htm.Core) sim.Cycles {
	m.Redirect.CommitFrame(c.ID)
	return 1
}

// CommitOpen flash-publishes the innermost journal frame (open nesting):
// its entries take the Figure 4(e) transitions immediately and the
// summary signature is updated, while the outer frames stay speculative.
func (v *VM) CommitOpen(m *htm.Machine, c *htm.Core) sim.Cycles {
	for _, ev := range m.Redirect.CommitOpenFrame(c.ID) {
		if ev.Added {
			m.Summary.Add(ev.Line)
		} else if ev.Removed {
			m.Summary.Delete(ev.Line)
		}
	}
	return m.Config().CommitLatency
}

// Abort flash-reverts every open journal frame (Figure 4(f)): no data
// moves, so the roll-back window — and with it the repair pathology —
// all but disappears.
func (v *VM) Abort(m *htm.Machine, c *htm.Core) sim.Cycles {
	lat := m.Config().FastAbortFixed
	if m.Redirect.TxOverflowed(c.ID) {
		c.Counters.TableOverflowTx++
		c.Counters.GracefulDegradation++
		lat += m.Config().MemLatency
	}
	for m.Redirect.InFrame(c.ID) {
		m.Redirect.AbortFrame(c.ID)
	}
	return lat
}

// OnSpecEviction is a no-op: SUV keeps no speculative cache lines — both
// versions live at real addresses.
func (v *VM) OnSpecEviction(m *htm.Machine, c *htm.Core, line sim.Line) {}

// translatedAddr rebases addr into target, keeping the in-line offset.
func translatedAddr(target sim.Line, addr sim.Addr) sim.Addr {
	return sim.AddrOf(target) | (addr & (sim.LineBytes - 1))
}
