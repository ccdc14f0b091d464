// Package workload defines the transactional instruction streams the
// simulated cores execute, and provides generators for the eight
// STAMP-analogue applications of Table IV plus micro-workloads used by
// tests and examples.
//
// Programs are tiny register-machine traces: loads and stores move 8-byte
// words between simulated memory and eight per-core registers, arithmetic
// ops combine registers, and Begin/Commit ops delimit transactions. On an
// abort the core's register checkpoint and program counter are restored
// to the matching Begin, so a transaction body re-executes exactly — the
// behaviour an execution-driven simulator needs for value-accurate
// version-management testing.
package workload

import (
	"fmt"

	"suvtm/internal/sim"
)

// NumRegs is the number of architectural registers per core covered by
// the register checkpoint.
const NumRegs = 8

// OpKind enumerates trace operations.
type OpKind uint8

const (
	// OpCompute models N cycles of non-memory work.
	OpCompute OpKind = iota
	// OpLoad loads the word at Addr into register Reg.
	OpLoad
	// OpStore stores register Reg to the word at Addr.
	OpStore
	// OpStoreImm stores the immediate Val to the word at Addr.
	OpStoreImm
	// OpLoadImm sets register Reg to Val.
	OpLoadImm
	// OpAddImm adds Val (two's-complement) to register Reg.
	OpAddImm
	// OpAddReg adds register Reg2 into register Reg.
	OpAddReg
	// OpBegin starts a transaction. N is the static transaction site id
	// (used by DynTM's history-based selector).
	OpBegin
	// OpCommit ends the innermost transaction.
	OpCommit
	// OpBarrier waits until every core reaches barrier N.
	OpBarrier
	// OpSuspend deschedules the thread mid-transaction (Section IV-C):
	// the transaction's signatures stay in force — the summary-signature
	// mechanism adopted from LogTM-SE — while the core runs other
	// (non-transactional) work until OpResume. N is the context-switch
	// cost in cycles.
	OpSuspend
	// OpResume reschedules the suspended transaction.
	OpResume
	// OpCommitOpen commits the innermost transaction as an OPEN nested
	// transaction (Section IV-C): its effects publish immediately and its
	// isolation is released while the parent continues. The N ops that
	// follow are the registered compensating action — skipped in normal
	// flow, executed if the parent later aborts.
	OpCommitOpen
)

// Op is a single trace operation.
type Op struct {
	Kind OpKind
	Reg  uint8
	Reg2 uint8
	N    uint32
	Addr sim.Addr
	Val  sim.Word
}

// String renders an op for diagnostics.
func (o Op) String() string {
	switch o.Kind {
	case OpCompute:
		return fmt.Sprintf("compute %d", o.N)
	case OpLoad:
		return fmt.Sprintf("r%d = load [%#x]", o.Reg, o.Addr)
	case OpStore:
		return fmt.Sprintf("store [%#x] = r%d", o.Addr, o.Reg)
	case OpStoreImm:
		return fmt.Sprintf("store [%#x] = %d", o.Addr, o.Val)
	case OpLoadImm:
		return fmt.Sprintf("r%d = %d", o.Reg, o.Val)
	case OpAddImm:
		return fmt.Sprintf("r%d += %d", o.Reg, int64(o.Val))
	case OpAddReg:
		return fmt.Sprintf("r%d += r%d", o.Reg, o.Reg2)
	case OpBegin:
		return fmt.Sprintf("begin_transaction site=%d", o.N)
	case OpCommit:
		return "commit_transaction"
	case OpBarrier:
		return fmt.Sprintf("barrier %d", o.N)
	case OpSuspend:
		return fmt.Sprintf("suspend_thread cost=%d", o.N)
	case OpResume:
		return "resume_thread"
	case OpCommitOpen:
		return fmt.Sprintf("commit_open_transaction comp=%d", o.N)
	}
	return fmt.Sprintf("op(%d)", o.Kind)
}

// Program is the full instruction stream for one core.
type Program struct {
	Ops []Op
}

// Builder assembles a Program.
type Builder struct {
	ops   []Op
	depth int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Compute appends n cycles of non-memory work (no-op for n == 0).
func (b *Builder) Compute(n uint32) *Builder {
	if n > 0 {
		b.ops = append(b.ops, Op{Kind: OpCompute, N: n})
	}
	return b
}

// Load appends a load of addr into reg.
func (b *Builder) Load(reg uint8, addr sim.Addr) *Builder {
	b.ops = append(b.ops, Op{Kind: OpLoad, Reg: reg, Addr: addr})
	return b
}

// Store appends a store of reg to addr.
func (b *Builder) Store(addr sim.Addr, reg uint8) *Builder {
	b.ops = append(b.ops, Op{Kind: OpStore, Reg: reg, Addr: addr})
	return b
}

// StoreImm appends a store of the immediate val to addr.
func (b *Builder) StoreImm(addr sim.Addr, val sim.Word) *Builder {
	b.ops = append(b.ops, Op{Kind: OpStoreImm, Addr: addr, Val: val})
	return b
}

// LoadImm appends reg = val.
func (b *Builder) LoadImm(reg uint8, val sim.Word) *Builder {
	b.ops = append(b.ops, Op{Kind: OpLoadImm, Reg: reg, Val: val})
	return b
}

// AddImm appends reg += delta.
func (b *Builder) AddImm(reg uint8, delta int64) *Builder {
	b.ops = append(b.ops, Op{Kind: OpAddImm, Reg: reg, Val: sim.Word(delta)})
	return b
}

// AddReg appends reg += reg2.
func (b *Builder) AddReg(reg, reg2 uint8) *Builder {
	b.ops = append(b.ops, Op{Kind: OpAddReg, Reg: reg, Reg2: reg2})
	return b
}

// Begin opens a transaction with the given static site id.
func (b *Builder) Begin(site uint32) *Builder {
	b.ops = append(b.ops, Op{Kind: OpBegin, N: site})
	b.depth++
	return b
}

// Commit closes the innermost transaction.
func (b *Builder) Commit() *Builder {
	if b.depth == 0 {
		panic("workload: Commit without Begin")
	}
	b.ops = append(b.ops, Op{Kind: OpCommit})
	b.depth--
	return b
}

// Barrier appends a barrier with id.
func (b *Builder) Barrier(id uint32) *Builder {
	if b.depth != 0 {
		panic("workload: Barrier inside a transaction")
	}
	b.ops = append(b.ops, Op{Kind: OpBarrier, N: id})
	return b
}

// Suspend deschedules the thread mid-transaction; the ops until Resume
// model the other thread's (non-transactional) work on the same core.
func (b *Builder) Suspend(switchCost uint32) *Builder {
	if b.depth == 0 {
		panic("workload: Suspend outside a transaction")
	}
	b.ops = append(b.ops, Op{Kind: OpSuspend, N: switchCost})
	return b
}

// Resume reschedules the suspended transaction.
func (b *Builder) Resume(switchCost uint32) *Builder {
	b.ops = append(b.ops, Op{Kind: OpResume, N: switchCost})
	return b
}

// CommitOpen commits the innermost transaction as an open nested
// transaction: its effects publish immediately. comp builds the
// compensating action the parent runs if it later aborts; the
// compensation may use loads, stores, arithmetic and compute, but not
// transactions or barriers.
func (b *Builder) CommitOpen(comp func(cb *Builder)) *Builder {
	if b.depth == 0 {
		panic("workload: CommitOpen without Begin")
	}
	cb := NewBuilder()
	if comp != nil {
		comp(cb)
	}
	for _, op := range cb.ops {
		//suv:nonexhaustive deliberate blacklist: data ops are legal in compensations, only control ops are rejected
		switch op.Kind {
		case OpBegin, OpCommit, OpCommitOpen, OpBarrier, OpSuspend, OpResume:
			panic("workload: compensation blocks may only contain straight-line ops")
		}
	}
	b.ops = append(b.ops, Op{Kind: OpCommitOpen, N: uint32(len(cb.ops))})
	b.ops = append(b.ops, cb.ops...)
	b.depth--
	return b
}

// Build finalizes the program. It panics on an unbalanced transaction.
func (b *Builder) Build() Program {
	if b.depth != 0 {
		panic("workload: Build with open transaction")
	}
	return Program{Ops: b.ops}
}
