package htm

import (
	"fmt"

	"suvtm/internal/coherence"
	"suvtm/internal/faults"
	"suvtm/internal/forensics"
	"suvtm/internal/interconnect"
	"suvtm/internal/mem"
	"suvtm/internal/redirect"
	"suvtm/internal/signature"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
	"suvtm/internal/trace"
	"suvtm/internal/workload"
)

// Machine is one simulated CMP running one application under one
// version-management scheme. It is single-goroutine and fully
// deterministic for a given (Config, programs, seed); experiments run
// many machines concurrently, one goroutine each.
type Machine struct {
	cfg    Config
	Memory *mem.Memory
	Alloc  *mem.Allocator
	L2     *mem.Cache
	Dir    *coherence.Directory
	Mesh   *interconnect.Mesh
	Cores  []*Core
	VM     VersionManager

	// SUV machinery (always constructed; only SUV-based schemes use it).
	Redirect *redirect.Redirect
	Summary  *signature.Summary

	// obs feeds the attached observers (observe.go); nil when none is.
	obs *observers

	heap            sim.ReadyHeap
	now             sim.Cycles
	barriers        map[uint32]*barrierState
	commitBusyUntil sim.Cycles
	finished        int
	participants    int // cores with a non-empty program (barrier quorum)

	// Robustness layer (see progress.go): the fault injector driving a
	// chaos plan, the pool-exhaustion reclamation penalty currently in
	// force, the global serialization token (-1 = free) with the cores
	// parked on it, and the next periodic invariant check.
	faults       *faults.Injector
	poolPenalty  sim.Cycles
	tokenCore    int
	tokenWaiting []int
	nextCheckAt  sim.Cycles

	// pk parks stalled requesters (see park.go).
	pk parker
}

type barrierState struct {
	arrived int
	waiting []int
}

// Result is the outcome of one simulation run. The JSON keys are the run
// cache's on-disk format (runcache.Entry embeds a Result).
type Result struct {
	Cycles    sim.Cycles        `json:"cycles"` // wall-clock of the slowest core
	Breakdown stats.Breakdown   `json:"breakdown"`
	PerCore   []stats.Breakdown `json:"per_core"`
	Counters  stats.Counters    `json:"counters"`
}

// Prebuilt carries reusable machine components a campaign worker retains
// across consecutive simulations: the coherence directory, the redirect
// state and the cache models, whose page tables and way arrays dominate
// per-run allocation (the 8 MB L2 alone). NewWith resets every provided
// component before use, so a machine built on a warm arena is
// bit-identical to a cold one; nil fields are constructed fresh.
type Prebuilt struct {
	Dir      *coherence.Directory
	Redirect *redirect.Redirect
	L2       *mem.Cache
	L1s      []*mem.Cache // per-core; shorter slices fall back to fresh L1s

	// Deprecated: Par is ignored; the machine keeps no engine scratch.
	Par *ParArena
}

// ParArena is an empty placeholder kept so callers that still fill
// Prebuilt.Par from (*Machine).ParArena compile.
//
// Deprecated: the machine has no engine scratch to retain.
type ParArena struct{}

// ParArena returns nil.
//
// Deprecated: see the ParArena type.
func (m *Machine) ParArena() *ParArena { return nil }

// New builds a machine executing one program per core under vm. Programs
// beyond cfg.Cores are rejected; fewer programs leave the extra cores
// idle. Memory and alloc must be the ones the workload generator used.
func New(cfg Config, vm VersionManager, programs []workload.Program, memory *mem.Memory, alloc *mem.Allocator) *Machine {
	return NewWith(cfg, vm, programs, memory, alloc, Prebuilt{})
}

// NewWith is New with an arena of reusable components (see Prebuilt).
func NewWith(cfg Config, vm VersionManager, programs []workload.Program, memory *mem.Memory, alloc *mem.Allocator, pre Prebuilt) *Machine {
	if len(programs) > cfg.Cores {
		panic(fmt.Sprintf("htm: %d programs for %d cores", len(programs), cfg.Cores))
	}
	dir := pre.Dir
	if dir == nil {
		dir = coherence.NewDirectory(cfg.Cores)
	} else {
		dir.Reset(cfg.Cores)
	}
	rd := pre.Redirect
	if rd == nil {
		rd = redirect.New(cfg.Redirect, alloc)
	} else {
		rd.Reset(cfg.Redirect, alloc)
	}
	l2 := pre.L2
	if l2 == nil {
		l2 = mem.NewCache(cfg.L2)
	} else {
		l2.Reset(cfg.L2)
	}
	m := &Machine{
		cfg:       cfg,
		Memory:    memory,
		Alloc:     alloc,
		L2:        l2,
		Dir:       dir,
		Mesh:      interconnect.NewMesh(cfg.Cores, cfg.WireLatency, cfg.RouteLatency),
		VM:        vm,
		Redirect:  rd,
		Summary:   signature.NewSummary(cfg.SigBits, signature.HashH3),
		barriers:  make(map[uint32]*barrierState),
		tokenCore: -1,
	}
	m.Dir.Retry = coherence.RetryPolicy{Timeout: cfg.ProtocolTimeout, MaxRetries: cfg.MeshMaxRetries}
	rng := sim.NewRNG(cfg.Seed)
	for i := 0; i < cfg.Cores; i++ {
		var l1 *mem.Cache
		if i < len(pre.L1s) && pre.L1s[i] != nil {
			l1 = pre.L1s[i]
			l1.Reset(cfg.L1)
		} else {
			l1 = mem.NewCache(cfg.L1)
		}
		c := &Core{
			ID: i,
			doom: doomInfo{
				killer: forensics.NoCore, killerSite: forensics.NoSite,
				line: forensics.NoLine,
			},
			RNG:      rng.Fork(),
			L1:       l1,
			TLB:      mem.NewTLB(cfg.TLBEntries),
			ReadSig:  signature.NewBloom(cfg.SigBits, signature.HashH3),
			WriteSig: signature.NewBloom(cfg.SigBits, signature.HashH3),
			readSet:  sim.NewLineSet(),
			writeSet: sim.NewLineSet(),
		}
		c.writtenTargets = sim.NewLineSet()
		if i < len(programs) {
			c.Prog = programs[i]
		}
		if len(c.Prog.Ops) > 0 {
			m.participants++
		}
		m.Cores = append(m.Cores, c)
	}
	vm.Init(m)
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// ArchMem returns the architectural view of memory: reads resolve
// through the committed redirect map, so callers see the value a program
// load would return at each address. Use it for post-run invariant
// checks; it is the identity for schemes that never redirect.
func (m *Machine) ArchMem() *ArchView { return &ArchView{m: m} }

// ArchView adapts the machine's physical memory plus redirect state into
// a workload.MemReader. It memoizes the last line's redirect resolution
// (invariant checks scan regions word by word, so 7 of 8 reads hit the
// memo); create a fresh view after the redirect state changes.
type ArchView struct {
	m        *Machine
	lastLine sim.Line
	lastTgt  sim.Line
	memoOK   bool
}

// Read returns the architectural value at addr.
func (v *ArchView) Read(addr sim.Addr) sim.Word {
	line := sim.LineOf(addr)
	if !v.memoOK || line != v.lastLine {
		v.lastLine, v.lastTgt, v.memoOK = line, v.m.Redirect.Resolve(-1, line), true
	}
	return v.m.Memory.Read(sim.AddrOf(v.lastTgt) | (addr & (sim.LineBytes - 1)))
}

// Run executes all programs to completion and returns the aggregated
// result. It fails if the watchdog fires or the cores deadlock on a
// mismatched barrier.
func (m *Machine) Run() (*Result, error) {
	for i, c := range m.Cores {
		if c.atEnd() {
			c.status = statusFinished
			m.finished++
			continue
		}
		m.heap.Push(0, i)
	}
	m.startParking()
	for {
		if len(m.pk.parked) > 0 {
			m.wakeForHeap()
		}
		if m.heap.Len() == 0 {
			break
		}
		at, id := m.heap.Pop()
		if m.cfg.MaxCycles > 0 && at > m.cfg.MaxCycles {
			m.now = at
			return nil, m.failRun(&WatchdogError{MaxCycles: m.cfg.MaxCycles, At: at, Cores: m.snapshotCores()})
		}
		m.now = at
		if m.faults != nil {
			m.advanceFaults(at)
		}
		if err := m.maybeCheckInvariants(at); err != nil {
			return nil, m.failRun(err)
		}
		m.obs.tick(at)
		m.pk.stepID = id
		m.step(m.Cores[id])
		if len(m.pk.parked) > 0 {
			m.parkSignals()
		}
	}
	if m.finished != len(m.Cores) {
		return nil, m.failRun(&DeadlockError{Finished: m.finished, Total: len(m.Cores), At: m.now, Cores: m.snapshotCores()})
	}
	res := &Result{PerCore: make([]stats.Breakdown, len(m.Cores))}
	var end sim.Cycles
	for _, c := range m.Cores {
		if c.finishedAt > end {
			end = c.finishedAt
		}
	}
	for i, c := range m.Cores {
		// A core that finished early waits at the final join (the paper's
		// Barrier component includes it).
		c.Breakdown.Add(stats.Barrier, end-c.finishedAt)
		res.PerCore[i] = c.Breakdown
		res.Breakdown.AddAll(&c.Breakdown)
		res.Counters.Add(&c.Counters)
	}
	res.Cycles = end
	m.obs.finish(end)
	return res, nil
}

// failRun finalizes a failed run before the error propagates: the
// metrics collector flushes its trailing interval and builds the
// snapshot breakouts, so the diagnostics (time series, histograms,
// Chrome trace via the streaming sink) survive the failure instead of
// being lost with the *Result that never materialized.
func (m *Machine) failRun(err error) error {
	m.obs.finish(m.now)
	return err
}

// step advances one core by one operation (or one engine event).
func (m *Machine) step(c *Core) {
	//suv:nonexhaustive statusRunning and statusTokenWait fall through to the main dispatch below the switch
	switch c.status {
	case statusFinished:
		return
	case statusAborting:
		m.finishAbort(c)
		return
	case statusBarrier:
		// Barrier cores are woken by the releaser with status reset;
		// a stale heap entry can be ignored.
		return
	case statusLazyCommitWait:
		c.status = statusRunning
		if c.abortPending && c.InTx() {
			// A committer doomed us while we waited for the token.
			m.remoteKill(c)
			return
		}
		m.doCommit(c)
		return
	}
	if c.abortPending && c.InTx() && !c.suspended {
		m.remoteKill(c)
		return
	}
	op := c.op()
	switch op.Kind {
	case workload.OpCompute:
		m.finishOp(c, sim.Cycles(op.N))
	case workload.OpLoadImm:
		c.Regs[op.Reg] = op.Val
		m.finishOp(c, 1)
	case workload.OpAddImm:
		c.Regs[op.Reg] += op.Val
		m.finishOp(c, 1)
	case workload.OpAddReg:
		c.Regs[op.Reg] += c.Regs[op.Reg2]
		m.finishOp(c, 1)
	case workload.OpLoad:
		m.doLoad(c, op)
	case workload.OpStore:
		m.doStore(c, op.Addr, c.Regs[op.Reg])
	case workload.OpStoreImm:
		m.doStore(c, op.Addr, op.Val)
	case workload.OpBegin:
		m.doBegin(c, op.N)
	case workload.OpCommit:
		c.commitAdvance = 1
		m.doCommit(c)
	case workload.OpCommitOpen:
		c.commitAdvance = 1 + int(op.N)
		m.doCommitOpen(c, int(op.N))
	case workload.OpBarrier:
		m.doBarrier(c, op.N)
	case workload.OpSuspend:
		if !c.TxActive() {
			panic(fmt.Sprintf("htm: core %d: suspend outside an active transaction", c.ID))
		}
		c.suspended = true
		m.obs.event(trace.Suspend, c.ID, 0, -1, 0)
		m.finishOp(c, sim.Cycles(op.N))
	case workload.OpResume:
		if !c.suspended {
			panic(fmt.Sprintf("htm: core %d: resume without suspend", c.ID))
		}
		c.suspended = false
		m.obs.event(trace.Resume, c.ID, 0, -1, 0)
		// The context-switch cost belongs to the resuming transaction.
		m.finishOp(c, sim.Cycles(op.N))
	default:
		panic(fmt.Sprintf("htm: core %d: unknown op %v", c.ID, op))
	}
}

// remoteKill starts the abort of c's transaction, which another core
// doomed.
func (m *Machine) remoteKill(c *Core) {
	c.Counters.RemoteAborts++
	m.obs.event(trace.RemoteKill, c.ID, c.doom.line, c.doom.killer, 0)
	m.startAbort(c, 0)
}

// finishOp charges lat for the current op (minimum one cycle: the cores
// are in-order single-issue), advances the PC and reschedules the core.
func (m *Machine) finishOp(c *Core, lat sim.Cycles) {
	if lat == 0 {
		lat = 1
	}
	m.chargeTx(c, lat)
	c.PC++
	if c.compRemaining > 0 {
		c.compRemaining--
		if c.compRemaining == 0 {
			m.nextCompensation(c)
		}
	}
	m.requeue(c, lat)
}

// nextCompensation jumps to the next queued compensating action, or back
// to the aborted transaction's begin when all have run.
func (m *Machine) nextCompensation(c *Core) {
	if len(c.compQueue) > 0 {
		r := c.compQueue[0]
		c.compQueue = c.compQueue[1:]
		c.PC = r.pc
		c.compRemaining = r.n
		return
	}
	c.PC = c.afterCompPC
}

// chargeTx attributes lat to the transaction attempt (resolved to Trans
// or Wasted later) or to NoTrans outside transactions. Work done while
// the transaction's thread is suspended belongs to the other thread and
// is NoTrans.
func (m *Machine) chargeTx(c *Core, lat sim.Cycles) {
	if c.TxActive() {
		c.attemptCyc += lat
	} else {
		c.Breakdown.Add(stats.NoTrans, lat)
	}
}

// requeue schedules the core's next step after lat cycles, or marks it
// finished when the program is exhausted.
func (m *Machine) requeue(c *Core, lat sim.Cycles) {
	if c.atEnd() {
		c.status = statusFinished
		c.finishedAt = m.now + lat
		m.finished++
		return
	}
	m.heap.Push(m.now+lat, c.ID)
}

// modeOf returns the conflict-detection mode of c's current transaction.
func (m *Machine) modeOf(c *Core) ExecMode {
	if !c.InTx() {
		return ModeNone
	}
	return m.VM.Mode(c)
}
