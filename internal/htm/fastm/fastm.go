// Package fastm implements the FasTM version manager (Lupon et al., PACT
// 2009): eager conflict detection like LogTM-SE, but speculative values
// are confined to the L1 cache while the L2 keeps the pre-transaction
// version. The first speculative write to a dirty line writes it back to
// the L2 first; commit flash-clears the speculative bits; abort
// flash-invalidates the speculative lines so the old version is refetched
// on demand — fast, unless a speculative line is evicted, in which case
// the transaction degenerates to LogTM-SE behaviour (software log +
// software abort walk).
package fastm

import (
	"suvtm/internal/htm"
	"suvtm/internal/sim"
	"suvtm/internal/workload"
)

const logRegionLines = 4096

type coreState struct {
	shadow     map[sim.Line][sim.WordsPerLine]sim.Word // pre-tx values ("L2 copy")
	order      []sim.Line                              // shadow insertion order (degenerate walk)
	marks      []int
	degenerate bool
	logBase    workload.Region
	logPos     int
}

// VM is the FasTM version manager.
type VM struct {
	st []coreState
}

// New returns a FasTM version manager.
func New() *VM { return &VM{} }

// Name implements htm.VersionManager.
func (v *VM) Name() string { return "FasTM" }

// Init allocates the per-core fallback log regions.
func (v *VM) Init(m *htm.Machine) {
	v.st = make([]coreState, len(m.Cores))
	for i := range v.st {
		v.st[i] = coreState{
			shadow:  make(map[sim.Line][sim.WordsPerLine]sim.Word),
			logBase: workload.NewRegion(m.Alloc, logRegionLines),
		}
	}
}

// Mode implements htm.VersionManager: FasTM is always eager.
func (v *VM) Mode(c *htm.Core) htm.ExecMode {
	if !c.InTx() {
		return htm.ModeNone
	}
	return htm.ModeEager
}

// Begin opens a frame.
func (v *VM) Begin(m *htm.Machine, c *htm.Core) sim.Cycles {
	s := &v.st[c.ID]
	s.marks = append(s.marks, len(s.order))
	return 2
}

// Translate is the identity.
func (v *VM) Translate(m *htm.Machine, c *htm.Core, line sim.Line, write bool) (sim.Line, sim.Cycles) {
	return line, 0
}

// Load reads the current value (speculative values live in place in the
// flat memory model; the shadow map plays the L2's role of keeping the
// old version for abort).
func (v *VM) Load(m *htm.Machine, c *htm.Core, addr, targetAddr sim.Addr) (sim.Word, sim.Cycles) {
	return m.Memory.Read(addr), 0
}

// Store preserves the pre-transaction line on first touch. While the
// transaction has not degenerated this costs a write-back of the old
// dirty line to the L2 (FasTM's one data movement); after degeneration it
// pays LogTM-SE's logging cost instead.
func (v *VM) Store(m *htm.Machine, c *htm.Core, addr sim.Addr, val sim.Word) (sim.Line, sim.Cycles) {
	line := sim.LineOf(addr)
	var lat sim.Cycles
	if c.TxActive() {
		s := &v.st[c.ID]
		if _, seen := s.shadow[line]; !seen {
			s.shadow[line] = m.Memory.ReadLine(line)
			s.order = append(s.order, line)
			if s.degenerate {
				lat += 1
				lat += m.AccessPrivate(c, s.logBase.Line(s.logPos%logRegionLines), true)
				s.logPos++
				c.Counters.UndoLogEntries++
			} else {
				if c.L1.IsDirty(line) {
					// Push the committed version down to the L2 before the
					// first speculative write.
					lat += m.Config().L2Latency
					c.Counters.Writebacks++
					c.L1.ClearDirty(line)
				}
				c.L1.MarkSpec(line, true)
			}
		}
	}
	m.Memory.Write(addr, val)
	return line, lat
}

// CommitOuter flash-clears the speculative bits: the L1 values become the
// committed version in place.
func (v *VM) CommitOuter(m *htm.Machine, c *htm.Core) sim.Cycles {
	c.L1.FlashClearSpec()
	v.reset(c.ID)
	return m.Config().CommitLatency
}

// CommitNested merges the innermost frame.
func (v *VM) CommitNested(m *htm.Machine, c *htm.Core) sim.Cycles {
	s := &v.st[c.ID]
	s.marks = s.marks[:len(s.marks)-1]
	return 1
}

// CommitOpen publishes the innermost frame: its lines stop being
// speculative (their in-place values are now the committed version) and
// their shadow copies are dropped, so a parent abort leaves them alone.
func (v *VM) CommitOpen(m *htm.Machine, c *htm.Core) sim.Cycles {
	s := &v.st[c.ID]
	mark := s.marks[len(s.marks)-1]
	for _, line := range s.order[mark:] {
		delete(s.shadow, line)
		c.L1.MarkSpec(line, false)
	}
	s.order = s.order[:mark]
	s.marks = s.marks[:len(s.marks)-1]
	return m.Config().CommitLatency
}

// Abort restores the pre-transaction values. The fast path
// flash-invalidates the speculative L1 lines (the old version is safe in
// the L2 and refetched on demand); a degenerated transaction walks its
// records in software like LogTM-SE.
func (v *VM) Abort(m *htm.Machine, c *htm.Core) sim.Cycles {
	s := &v.st[c.ID]
	cfg := m.Config()
	for _, line := range s.order {
		m.Memory.WriteLine(line, s.shadow[line])
	}
	var lat sim.Cycles
	if s.degenerate {
		for _, line := range c.L1.FlashInvalidateSpec() {
			m.Dir.Drop(line, c.ID)
		}
		lat = cfg.TrapLatency
		c.Counters.SoftwareTraps++
		for i := len(s.order) - 1; i >= 0; i-- {
			lat += cfg.LogWalkPerLine
			lat += m.AccessPrivate(c, s.logBase.Line(i%logRegionLines), false)
			lat += m.AccessPrivate(c, s.order[i], true)
			c.Counters.UndoLogRestores++
		}
	} else {
		c.L1.FlashInvalidateSpec()
		for _, line := range s.order {
			m.Dir.Drop(line, c.ID)
		}
		lat = cfg.FastAbortFixed
	}
	v.reset(c.ID)
	return lat
}

// OnSpecEviction degenerates the transaction to LogTM-SE: once a
// speculative line leaves the L1 the flash abort can no longer restore
// everything, so the remaining stores are logged and a future abort goes
// through the software handler.
func (v *VM) OnSpecEviction(m *htm.Machine, c *htm.Core, line sim.Line) {
	v.st[c.ID].degenerate = true
}

func (v *VM) reset(id int) {
	s := &v.st[id]
	clear(s.shadow)
	s.order = s.order[:0]
	s.marks = s.marks[:0]
	s.degenerate = false
	s.logPos = 0
}
