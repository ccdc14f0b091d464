package mem

import "suvtm/internal/sim"

// WriteLog is an ordered record of every data-plane mutation a Memory
// received while journaling was on. Replaying the log onto a reset
// memory reproduces the journaled image exactly — the same values, the
// same written-footprint bits, in the same order — which is what lets
// the fleet's workload memo skip regenerating a workload it has already
// built: the generators mutate memory only through Write/WriteLine (and
// CopyLine, journaled for completeness), so the log plus the generated
// App is the whole observable output of a generator run.
type WriteLog struct {
	entries []journalEntry
}

// journalEntry is one recorded mutation: a single word write, or a full
// line write (WriteLine/CopyLine) when isLine is set.
type journalEntry struct {
	addr   sim.Addr // word address; line-base address for line entries
	val    sim.Word
	vals   [sim.WordsPerLine]sim.Word
	isLine bool
}

func (l *WriteLog) word(addr sim.Addr, val sim.Word) {
	l.entries = append(l.entries, journalEntry{addr: addr, val: val})
}

func (l *WriteLog) line(line sim.Line, vals [sim.WordsPerLine]sim.Word) {
	l.entries = append(l.entries, journalEntry{
		addr:   sim.Addr(line) << sim.LineShift,
		vals:   vals,
		isLine: true,
	})
}

// Replay applies the log to m in recording order.
func (l *WriteLog) Replay(m *Memory) {
	for i := range l.entries {
		e := &l.entries[i]
		if e.isLine {
			m.WriteLine(sim.LineOf(e.addr), e.vals)
		} else {
			m.Write(e.addr, e.val)
		}
	}
}

// StartJournal begins recording every subsequent Write, WriteLine and
// CopyLine into a fresh log. Journaling is a generation-time facility:
// it must be stopped before simulation starts (the hot data plane pays
// one predictable nil-check while recording is off).
func (m *Memory) StartJournal() {
	if m.journal != nil {
		panic("mem: StartJournal while already journaling")
	}
	m.journal = new(WriteLog)
}

// StopJournal ends recording and returns the accumulated log.
func (m *Memory) StopJournal() *WriteLog {
	l := m.journal
	if l == nil {
		panic("mem: StopJournal without StartJournal")
	}
	m.journal = nil
	return l
}
