package htm

import (
	"suvtm/internal/forensics"
	"suvtm/internal/mem"
	"suvtm/internal/signature"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
	"suvtm/internal/workload"
)

// coreStatus is the engine-visible state of a core.
type coreStatus uint8

const (
	statusRunning        coreStatus = iota
	statusAborting                  // consuming the abort roll-back window
	statusBarrier                   // blocked on a barrier
	statusLazyCommitWait            // waiting for the commit token / validation
	statusTokenWait                 // parked at a begin while another core holds the serialization token
	statusFinished
)

// doomInfo is the provenance of a doom decision: who killed this
// transaction, at which line, through which mechanism, and whether the
// decision came from a signature hit confirmed (or not) by the precise
// sets. It is carried from the doom site to the abort that consumes it,
// which is where the forensics layer and the remote-kill trace read it.
// Purely observational: no simulation decision may depend on it.
type doomInfo struct {
	killer     int
	killerSite uint32
	line       sim.Line
	cause      forensics.Cause
	// sigHit marks the doom decision as a signature-reported conflict to
	// classify (true conflict vs false positive). Dooms whose signature
	// decision was already classified at the triggering NACK leave it
	// false to keep each decision counted exactly once.
	sigHit  bool
	precise bool
}

// clearDoom resets the provenance to "no doom recorded".
func (d *doomInfo) clear() {
	d.killer = forensics.NoCore
	d.killerSite = forensics.NoSite
	d.line = forensics.NoLine
	d.cause = forensics.CauseNone
	d.sigHit = false
	d.precise = false
}

// compRange locates a registered compensating action in the program: n
// ops starting at pc, run if the enclosing transaction aborts after an
// open-nested child committed.
type compRange struct {
	pc int
	n  int
}

// TxFrame is one (possibly nested) open transaction: the register
// checkpoint taken by begin_transaction plus the program counter to
// return to on abort. Nested frames additionally snapshot the
// signatures and precise sets at begin (LogTM-Nested style), so an
// open-nested commit can restore them — releasing the child's isolation
// while the parent keeps its own.
type TxFrame struct {
	BeginPC int
	Site    uint32
	Regs    [workload.NumRegs]sim.Word

	savedReadSig  *signature.Bloom // nil for the outermost frame
	savedWriteSig *signature.Bloom
	savedReadSet  *sim.LineSet
	savedWriteSet *sim.LineSet
	comps         []compRange // compensations registered by open-committed children
}

// Core is one simulated in-order core: its program, register file,
// caches, signatures, transaction stack and statistics.
type Core struct {
	ID   int
	Prog workload.Program
	PC   int
	Regs [workload.NumRegs]sim.Word
	RNG  *sim.RNG

	L1  *mem.Cache
	TLB *mem.TLB

	// Transactional state. ReadSig/WriteSig are cumulative over the whole
	// nest (supersets are safe); precise sets back the signatures for
	// false-positive accounting and lazy-victim detection.
	Frames   []TxFrame
	ReadSig  *signature.Bloom
	WriteSig *signature.Bloom
	readSet  *sim.LineSet
	writeSet *sim.LineSet
	// writtenTargets are the physical lines written this attempt (equal
	// to writeSet except under SUV, whose stores land in the preserved
	// pool). An eviction of one of these marks transactional data
	// overflow (Table V).
	writtenTargets *sim.LineSet
	Timestamp      sim.Cycles // outermost begin time; kept across retries so old transactions win
	hasTimestamp   bool
	possibleCyc    bool // this core NACKed an older transaction (LogTM cycle avoidance)
	consecAborts   int
	attemptCyc     sim.Cycles // transactional work this attempt (Trans on commit, Wasted on abort)
	attemptStart   sim.Cycles // cycle of this attempt's outermost begin (metrics)
	overflowedL1   bool       // a written line was evicted this attempt (Table V)
	abortPending   bool       // a committing lazy transaction killed us
	doom           doomInfo   // provenance of the pending (or imminent) abort
	// windowStart is the cycle of this attempt's first write acquisition
	// (0 = none yet); the isolation window closes when commit completes
	// or the abort roll-back finishes.
	windowStart sim.Cycles
	// suspended means the transaction's thread is descheduled
	// (Section IV-C): its signatures stay in force — the summary-
	// signature mechanism — while the core runs other, non-transactional
	// work. Remote aborts are deferred until the thread is rescheduled.
	suspended bool

	status     coreStatus
	barrierID  uint32
	barrierAt  sim.Cycles // arrival time (Barrier attribution)
	abortEndAt sim.Cycles // end of the abort roll-back window
	finishedAt sim.Cycles

	// Forward-progress monitoring (see progress.go): when this core last
	// committed (0 = never), when it parked waiting for the serialization
	// token, and whether its current struggle already counted a
	// starvation escalation.
	lastCommitAt sim.Cycles
	tokenParkAt  sim.Cycles
	escalated    bool

	// Compensation execution state (open nesting): after an abort, the
	// queued compensating actions run as plain code before the restart.
	compQueue     []compRange
	compRemaining int
	afterCompPC   int
	commitAdvance int // ops to skip when the pending commit completes

	Breakdown stats.Breakdown
	Counters  stats.Counters
}

// InTx reports whether the core has an open transaction (suspended or
// not — its signatures are in force either way).
func (c *Core) InTx() bool { return len(c.Frames) > 0 }

// TxActive reports whether the core is currently executing inside its
// transaction. While the transaction's thread is suspended the core runs
// other work, whose accesses are non-transactional; the filler must not
// touch the suspended transaction's write-set (the OS schedules
// unrelated work).
func (c *Core) TxActive() bool { return len(c.Frames) > 0 && !c.suspended }

// doomBy marks the core's transaction for abort on behalf of killer
// (a committing lazy transaction, a non-transactional store, the
// older-wins policy, a token grant), remembering who for the trace and
// the full provenance for the forensics layer.
func (c *Core) doomBy(killer int, killerSite uint32, line sim.Line, cause forensics.Cause, sigHit, precise bool) {
	c.abortPending = true
	c.doom = doomInfo{
		killer: killer, killerSite: killerSite, line: line,
		cause: cause, sigHit: sigHit, precise: precise,
	}
}

// txSite returns the core's outermost begin site, or NoSite outside a
// transaction.
func (c *Core) txSite() uint32 {
	if len(c.Frames) > 0 {
		return c.Frames[0].Site
	}
	return forensics.NoSite
}

// Depth returns the transaction nesting depth (the TM nest counter).
func (c *Core) Depth() int { return len(c.Frames) }

// InReadSet reports precise read-set membership (no aliasing).
func (c *Core) InReadSet(line sim.Line) bool {
	return c.readSet.Has(line)
}

// InWriteSet reports precise write-set membership (no aliasing).
func (c *Core) InWriteSet(line sim.Line) bool {
	return c.writeSet.Has(line)
}

// trackRead records line in the read signature and precise set.
func (c *Core) trackRead(line sim.Line) {
	c.ReadSig.Add(line)
	c.readSet.Add(line)
}

// trackWrite records line in the write signature and precise set.
func (c *Core) trackWrite(line sim.Line) {
	c.WriteSig.Add(line)
	c.writeSet.Add(line)
}

// clearTxState resets all transactional bookkeeping (after the outermost
// commit or a full abort).
func (c *Core) clearTxState() {
	c.Frames = c.Frames[:0]
	c.ReadSig.Clear()
	c.WriteSig.Clear()
	c.readSet.Clear()
	c.writeSet.Clear()
	c.writtenTargets.Clear()
	c.attemptCyc = 0
	c.overflowedL1 = false
	c.abortPending = false
	c.doom.clear()
	c.possibleCyc = false
	c.suspended = false
	c.windowStart = 0
}

// op returns the current instruction.
func (c *Core) op() workload.Op { return c.Prog.Ops[c.PC] }

// atEnd reports whether the program is exhausted.
func (c *Core) atEnd() bool { return c.PC >= len(c.Prog.Ops) }
