// Package forensics is the conflict-provenance layer of the simulated
// CMP: it attributes every NACK and every transaction abort to a cause,
// a killer, a line and a transaction site, and — because the simulator
// holds precise read/write LineSets alongside the Bloom signatures —
// classifies each conflict as a true data conflict or a signature false
// positive.
//
// The layer is strictly observational: enabling it never changes a
// simulated cycle, and the machine's observation seam feeds it, so a
// run without a collector pays one nil check per conflict event. All
// aggregation is deterministic — two runs of the same (config, seed)
// produce bit-identical reports — so forensic output is replay-stable
// and can be diffed across schemes.
package forensics

import (
	"suvtm/internal/sim"
)

// NoSite marks a conflict participant that was not inside a transaction
// (a non-transactional access has no begin site).
const NoSite = ^uint32(0)

// NoLine marks a conflict whose specific line is unknown (a
// signature-to-signature intersection with no precise witness — by
// construction a pure false positive).
const NoLine = ^sim.Line(0)

// NoCore marks an absent peer core (an injected NACK has no holder; a
// self-abort has no remote killer).
const NoCore = -1

// AccessKind says which kind of memory access raised a conflict.
type AccessKind uint8

// Access kinds.
const (
	Read AccessKind = iota
	Write
	numAccessKinds
)

var accessKindNames = [numAccessKinds]string{"read", "write"}

// String names the access kind.
func (k AccessKind) String() string {
	if k < numAccessKinds {
		return accessKindNames[k]
	}
	return "AccessKind(?)"
}

// Cause classifies why a conflict event happened — which machine
// mechanism stalled or killed the transaction.
type Cause uint8

// Conflict causes. The first group are stall (NACK) causes, the second
// are abort causes; CauseEagerNACK appears in both roles (a NACK chain
// that escalates into a possible-cycle abort is reported as CauseCycle).
const (
	// CauseNone is an event with no recorded provenance (should not
	// appear on any machine-generated report; kept as a safe zero).
	CauseNone Cause = iota
	// CauseEagerNACK is an eager directory-level conflict: the requester
	// stalled against a holder's read/write signature.
	CauseEagerNACK
	// CauseLazyValidation is a lazy committer stalled at commit
	// arbitration by an active eager transaction's signature.
	CauseLazyValidation
	// CauseInjected is a NACK manufactured by the fault injector's storm
	// window (no real holder, no signature involved).
	CauseInjected
	// CauseCycle is a possible-cycle self-abort (LogTM distributed cycle
	// avoidance): the requester aborted itself rather than risk deadlock.
	CauseCycle
	// CauseCommitKill is a lazy transaction doomed by a committing
	// transaction's write-signature broadcast (committer wins).
	CauseCommitKill
	// CauseNonTxStore is a lazy transaction doomed by a durable
	// non-transactional store (strong isolation).
	CauseNonTxStore
	// CauseOlderWins is a holder doomed under the older-wins policy by an
	// older NACKed requester.
	CauseOlderWins
	// CauseToken is a transaction doomed when another starving core was
	// granted the global serialization token (forward-progress
	// escalation, not a data conflict).
	CauseToken
	numCauses
)

var causeNames = [numCauses]string{
	"none", "eager-nack", "lazy-validation", "injected", "cycle",
	"commit-kill", "nontx-store", "older-wins", "token",
}

// String names the cause (the folded-stack frame spelling).
func (c Cause) String() string {
	if c < numCauses {
		return causeNames[c]
	}
	return "Cause(?)"
}

// NACKEvent is one refused memory request: the requester stalled (or,
// for CauseCycle escalations, will abort) against the holder.
type NACKEvent struct {
	Cycle     sim.Cycles
	Requester int // the core that pays the stall
	Holder    int // the core whose isolation refused it; NoCore = injected
	Line      sim.Line
	Kind      AccessKind
	Cause     Cause
	ReqSite   uint32 // requester's begin site; NoSite outside a transaction
	HoldSite  uint32 // holder's begin site; NoSite when absent
	// SigHit says a signature reported the conflict; Precise says the
	// holder's precise read/write LineSets confirm it. SigHit && !Precise
	// is a signature false positive (aliasing or saturation).
	SigHit  bool
	Precise bool
	// Stall is the cycles the requester loses to this refusal.
	Stall sim.Cycles
	// Sharers is the directory's sharer count for the line at conflict
	// time (contention degree of the hot line).
	Sharers int
	// AliasRate is the holder signature's predicted false-positive
	// probability at its current fill (signature.Bloom.AliasRate),
	// sampled so reports can compare measured vs predicted aliasing.
	AliasRate float64
}

// AbortEvent is one aborted transaction attempt with its recorded doom
// provenance.
type AbortEvent struct {
	Cycle  sim.Cycles
	Victim int
	Killer int // NoCore for self-inflicted aborts with no remote agent
	Line   sim.Line
	Cause  Cause
	// VictimSite is the victim's outermost begin site; KillerSite the
	// killer's at doom time (NoSite when unknown).
	VictimSite uint32
	KillerSite uint32
	// SigHit/Precise carry the doom decision's classification (false for
	// causes that involve no signature, such as token kills).
	SigHit  bool
	Precise bool
	// Wasted is the attempt's transactional work thrown away (the cycles
	// that land in the Wasted breakdown component).
	Wasted sim.Cycles
	// AttemptStart is the cycle of the attempt's outermost begin; the
	// cascade detector uses it to link this abort to the killer's own
	// recent abort.
	AttemptStart sim.Cycles
}

// coreFx is the collector's per-core state.
type coreFx struct {
	lastAbortAt  sim.Cycles
	cascadeDepth int
	aborted      bool
}

// siteFx aggregates conflict activity for one transaction begin site.
type siteFx struct {
	nacks, aborts       uint64
	truePos, falsePos   uint64
	stall, wasted       sim.Cycles
	killed, friendlyNow uint64 // aborts this site caused on others
}

// lineFx aggregates conflict activity for one cache line.
type lineFx struct {
	line              sim.Line
	nacks, aborts     uint64
	truePos, falsePos uint64
	stall, wasted     sim.Cycles
	maxSharers        int
}

// edgeFx is one killer→victim cell of the abort-causality graph.
type edgeFx struct {
	aborts uint64
	wasted sim.Cycles
}

// foldKey addresses one site→line→cause stack of the cycle-loss
// profile.
type foldKey struct {
	site  uint32
	line  sim.Line
	cause Cause
}

// Collector gathers one run's conflict provenance. It is single-
// goroutine, like the machine that feeds it; concurrent fleet runs each
// own a private collector.
type Collector struct {
	cores int

	// Classification accounting. sigHits counts every conflict decision
	// a signature reported; preciseHits the subset the precise LineSets
	// confirm; trueConf/falsePos the per-event classification. The
	// invariant falsePos == sigHits - preciseHits ties the two
	// bookkeeping paths together (the oracle test asserts it).
	sigHits, preciseHits uint64
	trueConf, falsePos   uint64

	nacks, injected uint64
	aborts          uint64
	stallCycles     sim.Cycles
	wastedCycles    sim.Cycles

	aliasSum float64 // sum of sampled predicted alias rates
	aliasN   uint64

	perCore []coreFx
	edges   []edgeFx // cores×cores, killer-major
	causes  [numCauses]struct {
		events uint64
		cycles sim.Cycles
	}

	sites    map[uint32]*siteFx
	lineIdx  sim.LineMap[int32]
	lineAggs []lineFx
	folds    map[foldKey]sim.Cycles

	cascades        uint64
	maxCascadeDepth int
}

// NewCollector creates a collector for a machine with the given core
// count.
func NewCollector(cores int) *Collector {
	return &Collector{
		cores:   cores,
		perCore: make([]coreFx, cores),
		edges:   make([]edgeFx, cores*cores),
		sites:   make(map[uint32]*siteFx),
		folds:   make(map[foldKey]sim.Cycles),
	}
}

// NACK records one refused request.
func (f *Collector) NACK(ev NACKEvent) {
	f.nacks++
	if ev.Cause == CauseInjected {
		f.injected++
	}
	f.stallCycles += ev.Stall
	f.classify(ev.SigHit, ev.Precise, ev.AliasRate)
	f.causes[ev.Cause].events++
	f.causes[ev.Cause].cycles += ev.Stall

	s := f.site(ev.ReqSite)
	s.nacks++
	s.stall += ev.Stall
	f.tally(&s.truePos, &s.falsePos, ev.SigHit, ev.Precise)
	if ev.HoldSite != NoSite && ev.HoldSite != ev.ReqSite {
		// The holder's site is the other half of the contention pair;
		// count the refusal it issued so hot sites surface from both
		// directions.
		f.site(ev.HoldSite).killed++
	}

	if ev.Line != NoLine {
		l := f.line(ev.Line)
		l.nacks++
		l.stall += ev.Stall
		f.tally(&l.truePos, &l.falsePos, ev.SigHit, ev.Precise)
		if ev.Sharers > l.maxSharers {
			l.maxSharers = ev.Sharers
		}
	}
	f.folds[foldKey{site: ev.ReqSite, line: ev.Line, cause: ev.Cause}] += ev.Stall
}

// Abort records one aborted attempt.
func (f *Collector) Abort(ev AbortEvent) {
	f.aborts++
	f.wastedCycles += ev.Wasted
	f.classify(ev.SigHit, ev.Precise, 0)
	f.causes[ev.Cause].events++
	f.causes[ev.Cause].cycles += ev.Wasted

	s := f.site(ev.VictimSite)
	s.aborts++
	s.wasted += ev.Wasted
	f.tally(&s.truePos, &s.falsePos, ev.SigHit, ev.Precise)
	if ev.KillerSite != NoSite {
		f.site(ev.KillerSite).killed++
	}

	if ev.Line != NoLine {
		l := f.line(ev.Line)
		l.aborts++
		l.wasted += ev.Wasted
		f.tally(&l.truePos, &l.falsePos, ev.SigHit, ev.Precise)
	}
	f.folds[foldKey{site: ev.VictimSite, line: ev.Line, cause: ev.Cause}] += ev.Wasted

	// Abort-causality graph and cascade chains.
	v := &f.perCore[ev.Victim]
	if ev.Killer != NoCore && ev.Killer != ev.Victim && ev.Killer < f.cores {
		e := &f.edges[ev.Killer*f.cores+ev.Victim]
		e.aborts++
		e.wasted += ev.Wasted
		k := &f.perCore[ev.Killer]
		if k.aborted && k.lastAbortAt >= ev.AttemptStart {
			// The killer itself aborted during this victim's attempt: the
			// victim's lost work is downstream of the killer's loss — an
			// abort cascade.
			f.cascades++
			v.cascadeDepth = k.cascadeDepth + 1
			if v.cascadeDepth > f.maxCascadeDepth {
				f.maxCascadeDepth = v.cascadeDepth
			}
		} else {
			v.cascadeDepth = 1
		}
	} else {
		v.cascadeDepth = 1
	}
	v.aborted = true
	v.lastAbortAt = ev.Cycle
}

// classify feeds the signature false-positive accounting.
func (f *Collector) classify(sigHit, precise bool, aliasRate float64) {
	if !sigHit {
		return
	}
	f.sigHits++
	if precise {
		f.preciseHits++
		f.trueConf++
	} else {
		f.falsePos++
		f.aliasSum += aliasRate
		f.aliasN++
	}
}

// tally bumps a true/false-positive pair for one aggregate.
func (f *Collector) tally(truePos, falsePos *uint64, sigHit, precise bool) {
	if !sigHit {
		return
	}
	if precise {
		*truePos++
	} else {
		*falsePos++
	}
}

// site returns (lazily creating) the aggregate for a begin site.
func (f *Collector) site(site uint32) *siteFx {
	s, ok := f.sites[site]
	if !ok {
		s = &siteFx{}
		f.sites[site] = s
	}
	return s
}

// line returns (lazily creating) the aggregate for a cache line.
func (f *Collector) line(ln sim.Line) *lineFx {
	if i, ok := f.lineIdx.Get(ln); ok {
		return &f.lineAggs[i]
	}
	f.lineIdx.Put(ln, int32(len(f.lineAggs)))
	f.lineAggs = append(f.lineAggs, lineFx{line: ln})
	return &f.lineAggs[len(f.lineAggs)-1]
}
