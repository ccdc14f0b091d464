// Package logtmse implements the LogTM-SE version manager (Yen et al.,
// HPCA 2007), the paper's baseline: eager version management through a
// per-thread undo log in cacheable virtual memory, in-place updates, and
// a software abort handler that walks the log backwards to restore old
// values — all while the transaction's signatures keep NACKing
// conflicting requests (the repair pathology of Figure 1).
package logtmse

import (
	"suvtm/internal/htm"
	"suvtm/internal/sim"
	"suvtm/internal/workload"
)

// logRegionLines sizes each core's private undo-log region; the log
// wraps, which is safe because a transaction's records are consumed at
// its own commit/abort.
const logRegionLines = 4096

type undoRec struct {
	line sim.Line
	vals [sim.WordsPerLine]sim.Word
}

type coreState struct {
	log     []undoRec
	logged  map[sim.Line]int // line -> index in log (first-touch filter)
	marks   []int            // nesting frame marks
	logBase workload.Region
	logPos  int
}

// VM is the LogTM-SE version manager.
type VM struct {
	st []coreState
}

// New returns a LogTM-SE version manager.
func New() *VM { return &VM{} }

// Name implements htm.VersionManager.
func (v *VM) Name() string { return "LogTM-SE" }

// Init allocates each core's private undo-log region.
func (v *VM) Init(m *htm.Machine) {
	v.st = make([]coreState, len(m.Cores))
	for i := range v.st {
		v.st[i] = coreState{
			logged:  make(map[sim.Line]int),
			logBase: workload.NewRegion(m.Alloc, logRegionLines),
		}
	}
}

// Mode implements htm.VersionManager: LogTM-SE is always eager.
func (v *VM) Mode(c *htm.Core) htm.ExecMode {
	if !c.InTx() {
		return htm.ModeNone
	}
	return htm.ModeEager
}

// Begin takes the register checkpoint and opens a log frame.
func (v *VM) Begin(m *htm.Machine, c *htm.Core) sim.Cycles {
	s := &v.st[c.ID]
	s.marks = append(s.marks, len(s.log))
	return 2
}

// Translate is the identity: LogTM-SE updates in place.
func (v *VM) Translate(m *htm.Machine, c *htm.Core, line sim.Line, write bool) (sim.Line, sim.Cycles) {
	return line, 0
}

// Load reads the current (in-place) value.
func (v *VM) Load(m *htm.Machine, c *htm.Core, addr, targetAddr sim.Addr) (sim.Word, sim.Cycles) {
	return m.Memory.Read(addr), 0
}

// Store writes the undo record on the first touch of each line (one extra
// load plus one extra store per transactional write — Section II), then
// updates memory in place.
func (v *VM) Store(m *htm.Machine, c *htm.Core, addr sim.Addr, val sim.Word) (sim.Line, sim.Cycles) {
	line := sim.LineOf(addr)
	var lat sim.Cycles
	if c.TxActive() {
		s := &v.st[c.ID]
		if _, seen := s.logged[line]; !seen {
			s.logged[line] = len(s.log)
			s.log = append(s.log, undoRec{line: line, vals: m.Memory.ReadLine(line)})
			// Read the old value out of the just-fetched line, then write
			// the 64-byte record into the (private, cacheable) log.
			lat += 1
			lat += m.AccessPrivate(c, s.logBase.Line(s.logPos%logRegionLines), true)
			s.logPos++
			c.Counters.UndoLogEntries++
		}
	}
	m.Memory.Write(addr, val)
	return line, lat
}

// CommitOuter discards the log: eager commit is cheap.
func (v *VM) CommitOuter(m *htm.Machine, c *htm.Core) sim.Cycles {
	v.reset(c.ID)
	return m.Config().CommitLatency
}

// CommitNested merges the innermost frame into its parent.
func (v *VM) CommitNested(m *htm.Machine, c *htm.Core) sim.Cycles {
	s := &v.st[c.ID]
	s.marks = s.marks[:len(s.marks)-1]
	return 1
}

// CommitOpen publishes the innermost frame: its undo records are
// discarded, so a parent abort no longer rolls the child's writes back
// (the registered compensating action undoes them semantically). The
// parent and its open child should not overlap write sets — overlapping
// lines logged first by the parent are still restored by a parent abort.
func (v *VM) CommitOpen(m *htm.Machine, c *htm.Core) sim.Cycles {
	s := &v.st[c.ID]
	mark := s.marks[len(s.marks)-1]
	for i := mark; i < len(s.log); i++ {
		delete(s.logged, s.log[i].line)
	}
	s.log = s.log[:mark]
	s.marks = s.marks[:len(s.marks)-1]
	return m.Config().CommitLatency
}

// Abort traps into the software handler and replays the undo log
// backwards, restoring each logged line. The machine holds the
// transaction's isolation for the whole returned duration.
func (v *VM) Abort(m *htm.Machine, c *htm.Core) sim.Cycles {
	s := &v.st[c.ID]
	cfg := m.Config()
	lat := cfg.TrapLatency
	c.Counters.SoftwareTraps++
	for i := len(s.log) - 1; i >= 0; i-- {
		rec := s.log[i]
		m.Memory.WriteLine(rec.line, rec.vals)
		// Fetch the log record, then write the old data back to the line
		// (a miss if the line was evicted during the transaction).
		lat += cfg.LogWalkPerLine
		lat += m.AccessPrivate(c, s.logBase.Line(i%logRegionLines), false)
		lat += m.AccessPrivate(c, rec.line, true)
		c.Counters.UndoLogRestores++
	}
	v.reset(c.ID)
	return lat
}

// OnSpecEviction is a no-op: LogTM-SE keeps no speculative lines — the
// signatures virtualize evicted transactional state.
func (v *VM) OnSpecEviction(m *htm.Machine, c *htm.Core, line sim.Line) {}

func (v *VM) reset(id int) {
	s := &v.st[id]
	s.log = s.log[:0]
	s.marks = s.marks[:0]
	clear(s.logged)
	s.logPos = 0
}
