package htm

import "suvtm/internal/sim"

// ExecMode is how a transaction detects conflicts and manages versions.
type ExecMode uint8

const (
	// ModeNone means the core has no active transaction.
	ModeNone ExecMode = iota
	// ModeEager transactions acquire isolation at access time: their
	// signatures NACK conflicting requests until commit or abort.
	ModeEager
	// ModeLazy transactions (DynTM) run invisibly — their writes are
	// buffered or redirected privately — and resolve conflicts at commit
	// via arbitration and write-set validation.
	ModeLazy
)

// String names the mode.
func (m ExecMode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeEager:
		return "eager"
	case ModeLazy:
		return "lazy"
	}
	return "ExecMode(?)"
}

// VersionManager is the scheme plug-in interface. The Machine drives the
// coherence protocol, conflict detection and the engine; the
// VersionManager decides where transactional data lives (undo log,
// speculative L1 lines, redirect pool), what each operation costs, and
// how commit and abort transform memory.
//
// Call ordering for a transactional store: Translate (address filter and
// redirect-table walk, pre-permission) -> machine conflict check and
// coherence fetch -> Store (version-management transition and the actual
// value write). Loads use Translate -> fetch -> Load.
type VersionManager interface {
	// Name returns the scheme name used in reports ("LogTM-SE", ...).
	Name() string

	// Init is called once after the Machine is fully constructed.
	Init(m *Machine)

	// Mode reports how c's current transaction detects conflicts.
	// It must return ModeNone when c is not in a transaction.
	Mode(c *Core) ExecMode

	// Begin opens a transaction frame (outermost or nested) and returns
	// the cycles the hardware spends (register checkpoint, signature
	// setup). The frame has already been pushed on c.Frames.
	Begin(m *Machine, c *Core) sim.Cycles

	// Translate maps a program line to the physical line the access must
	// use (SUV redirect filtering and table walk; identity elsewhere),
	// returning lookup latency. It must have no transactional side
	// effects: a NACKed access will call it again on retry.
	//
	// Translate may read only the requesting core's own state, the
	// redirect state (m.Redirect) and the summary signature (m.Summary).
	// The machine parks a requester whose retries repeat exactly and
	// skips them until something they read could change, and it watches
	// exactly those three for changes: c's own state is frozen while c
	// is parked, and the redirect and summary packages signal their
	// mutations. A scheme whose translation reads other shared state
	// must signal when that state changes.
	Translate(m *Machine, c *Core, line sim.Line, write bool) (sim.Line, sim.Cycles)

	// Load returns the value of addr for c, given the translated
	// targetAddr (lazy schemes consult their write buffer first), plus
	// any version-management latency beyond the cache access.
	Load(m *Machine, c *Core, addr, targetAddr sim.Addr) (sim.Word, sim.Cycles)

	// Store performs the version-management action for a store by c
	// (undo logging, speculative marking, redirect transition, write
	// buffering), writes the value, and returns the physical line that
	// now holds the data (for L1 installation) plus extra latency.
	// For eager modes the machine has already acquired exclusive
	// permission for the *pre-transition* target line.
	Store(m *Machine, c *Core, addr sim.Addr, val sim.Word) (sim.Line, sim.Cycles)

	// CommitOuter finalizes c's outermost transaction (the machine has
	// already performed lazy arbitration/validation if applicable) and
	// returns the version-management commit latency.
	CommitOuter(m *Machine, c *Core) sim.Cycles

	// CommitNested merges c's innermost nested frame into its parent.
	CommitNested(m *Machine, c *Core) sim.Cycles

	// CommitOpen publishes c's innermost nested frame immediately (open
	// nesting, Section IV-C): its version-management effects become
	// durable even though the parent is still speculative. The machine
	// separately restores the parent's signatures and registers the
	// compensating action.
	CommitOpen(m *Machine, c *Core) sim.Cycles

	// Abort rolls back every open frame of c's transaction and returns
	// the roll-back latency; the machine keeps c's isolation (signatures)
	// in force for that whole duration — the repair-pathology window.
	Abort(m *Machine, c *Core) sim.Cycles

	// OnSpecEviction tells the scheme a speculative line was evicted from
	// c's L1 during a transaction (FasTM degenerates to LogTM-SE).
	OnSpecEviction(m *Machine, c *Core, line sim.Line)
}
