// Package htm is the hardware-transactional-memory framework of the
// simulated CMP: it owns the cores, the memory hierarchy, the MESI
// directory, eager conflict detection over Bloom signatures with the
// LogTM Stall policy (timestamp-based possible-cycle abort), lazy commit
// arbitration for DynTM, the execution-time breakdown, and the engine
// loop that advances cores deterministically. Version-management schemes
// (LogTM-SE, FasTM, SUV-TM, DynTM) plug in through the VersionManager
// interface and live in subpackages.
package htm

import (
	"suvtm/internal/mem"
	"suvtm/internal/redirect"
	"suvtm/internal/sim"
)

// ConflictPolicy selects how an eager conflict is resolved (Section III:
// "the requesting core resolves the conflict by stalling or aborting the
// transaction. An alternative policy is to make the receiving core stall
// or abort its transaction to guarantee the execution of the requester").
type ConflictPolicy uint8

const (
	// PolicyStall is the paper's evaluation default: NACK the requester,
	// who stalls and retries; LogTM's possible-cycle detection aborts the
	// requester when a deadlock threatens.
	PolicyStall ConflictPolicy = iota
	// PolicyOlderWins is the alternative: when the requester's
	// transaction is older than the holder's, the holder aborts instead
	// (guaranteeing the requester's progress); otherwise the requester
	// stalls as usual. Used by the ablation study.
	PolicyOlderWins
)

// String names the policy.
func (p ConflictPolicy) String() string {
	switch p {
	case PolicyStall:
		return "Stall"
	case PolicyOlderWins:
		return "OlderWins"
	}
	return "ConflictPolicy(?)"
}

// Config carries every parameter of the simulated CMP (Table III) plus
// the TM framework's tuning constants.
type Config struct {
	Cores int
	Seed  uint64

	// Policy selects the conflict-resolution policy (the paper's
	// experiments all use PolicyStall; PolicyOlderWins backs the
	// ablation study).
	Policy ConflictPolicy

	// Memory hierarchy (Table III).
	L1         mem.CacheConfig // 32 KB 4-way, 64-byte lines
	L2         mem.CacheConfig // 8 MB 8-way, shared
	L1Latency  sim.Cycles      // 1
	L2Latency  sim.Cycles      // 15
	MemLatency sim.Cycles      // 150
	DirLatency sim.Cycles      // 6
	TLBEntries int             // 64

	// Interconnect (Table III): mesh with 2-cycle wire, 1-cycle route.
	WireLatency  sim.Cycles
	RouteLatency sim.Cycles

	// Conflict detection.
	SigBits       uint32     // 2 Kbit Bloom filters
	RetryInterval sim.Cycles // NACKed request retry spacing
	BackoffBase   sim.Cycles // randomized exponential backoff seed
	BackoffMax    sim.Cycles // backoff cap

	// Version management.
	TrapLatency     sim.Cycles // software abort-handler entry (LogTM-SE)
	LogWalkPerLine  sim.Cycles // fixed software cost per undo record replayed
	CommitLatency   sim.Cycles // eager commit bookkeeping (flash operations)
	FastAbortFixed  sim.Cycles // FasTM / SUV constant abort cost
	LazyMergePerLn  sim.Cycles // DynTM lazy commit: per-line merge cost
	LazyArbitration sim.Cycles // DynTM lazy commit: token acquisition overhead

	// SUV redirect machinery (Table III: 512-entry L1 table, 16K-entry
	// 8-way 10-cycle L2 table).
	Redirect redirect.Config

	// Robustness: protocol-level recovery from interconnect misbehavior.
	// A directory request unanswered for ProtocolTimeout cycles is
	// retransmitted over a rerouted path, up to MeshMaxRetries times,
	// bounding the damage an injected message delay can do (0 = off).
	ProtocolTimeout sim.Cycles
	MeshMaxRetries  int

	// Forward-progress escalation ladder. A transaction that has aborted
	// BoostAborts times in a row backs off beyond BackoffMax (boosted
	// backoff); at HopelessAborts consecutive aborts — or after
	// StarveThreshold cycles inside one transaction without committing —
	// it is granted the global serialization token and runs irrevocably
	// while other cores park at their next transaction begin ("hopeless
	// transaction" mode). Zero disables each rung, which is the default:
	// high-contention paper workloads legitimately see hundreds of
	// consecutive aborts that classic backoff resolves, so the ladder is
	// an opt-in for chaos/fault runs (WithProgressLadder) rather than a
	// change to the evaluated schemes' fault-free behavior.
	StarveThreshold sim.Cycles
	BoostAborts     int
	HopelessAborts  int

	// CheckInterval, when positive, runs the machine's invariant checker
	// (coherence + redirect cross-consistency) every so many cycles and
	// fails the run on the first violation. Debug aid; expensive.
	CheckInterval sim.Cycles

	// Watchdog: abort the simulation after this many cycles (0 = off).
	// The forward-progress ladder above should make this unreachable; it
	// remains as the last-resort backstop, now returning a typed
	// *WatchdogError with per-core diagnostics.
	MaxCycles sim.Cycles
}

// DefaultConfig returns the paper's Table III configuration for the given
// number of cores (the paper uses 16).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:           cores,
		Seed:            1,
		L1:              mem.CacheConfig{SizeBytes: 32 << 10, Ways: 4},
		L2:              mem.CacheConfig{SizeBytes: 8 << 20, Ways: 8},
		L1Latency:       1,
		L2Latency:       15,
		MemLatency:      150,
		DirLatency:      6,
		TLBEntries:      64,
		WireLatency:     2,
		RouteLatency:    1,
		SigBits:         2048,
		RetryInterval:   20,
		BackoffBase:     40,
		BackoffMax:      8192,
		TrapLatency:     170,
		LogWalkPerLine:  10,
		CommitLatency:   4,
		FastAbortFixed:  15,
		LazyMergePerLn:  15,
		LazyArbitration: 24,
		Redirect:        redirect.DefaultConfig(cores),
		ProtocolTimeout: 500,
		MeshMaxRetries:  3,
		MaxCycles:       2_000_000_000,
	}
}

// WithProgressLadder returns the config with the forward-progress
// escalation ladder armed at its standard thresholds. Chaos runs (and
// suvsim -faults) use it: under injected NACK storms, saturation and
// message delay, boosted backoff plus the serialization token bound how
// long any one transaction can starve, at the price of diverging from
// the paper's classic-backoff schedule once a rung engages.
func (c Config) WithProgressLadder() Config {
	c.StarveThreshold = 1_000_000
	c.BoostAborts = 24
	c.HopelessAborts = 48
	return c
}
