package htm_test

import (
	"reflect"
	"slices"
	"testing"

	"suvtm/internal/htm"
	"suvtm/internal/htm/logtmse"
	"suvtm/internal/htm/suvtm"
	"suvtm/internal/mem"
	"suvtm/internal/signature"
	"suvtm/internal/sim"
	"suvtm/internal/stats"
	"suvtm/internal/trace"
	"suvtm/internal/workload"
)

// stallRun is a two-core stall: the holder writes one line inside a
// transaction, computes for hold cycles, then commits, while the
// requester's load of that line is NACKed and retried until the commit.
// holderFirst puts the holder at core 0 and the requester at core 1.
type stallRun struct {
	vm          func() htm.VersionManager
	hold        uint32
	rounds      int
	holderFirst bool
}

// run builds and runs the machine; traced attaches a recorder, which
// keeps every retry on the per-retry loop.
func (s stallRun) run(t *testing.T, traced bool) (*htm.Machine, *htm.Result, *trace.Recorder) {
	t.Helper()
	memory := mem.NewMemory()
	alloc := mem.NewAllocator(arenaHeapBase, arenaHeapSize)
	region := workload.NewRegion(alloc, 2)
	hb, rb := workload.NewBuilder(), workload.NewBuilder()
	for i := 0; i < s.rounds; i++ {
		hb.Begin(1).StoreImm(region.WordAddr(0, 0), sim.Word(i+1)).Compute(s.hold).Commit().Compute(3)
		rb.Compute(40).Load(0, region.WordAddr(0, 0)).Compute(s.hold / 2)
	}
	hb.Barrier(0)
	rb.Barrier(0)
	progs := []workload.Program{rb.Build(), hb.Build()}
	if s.holderFirst {
		progs[0], progs[1] = progs[1], progs[0]
	}
	m := htm.New(htm.DefaultConfig(2), s.vm(), progs, memory, alloc)
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(1 << 16)
		m.SetTracer(rec)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m, res, rec
}

// TestParkTieRule releases a parked requester's holder at exactly one of
// the requester's retry slots. The heap orders equal cycles by core ID,
// so with the requester below the holder its retry at that cycle still
// runs (and is refused) before the commit, and with the requester above
// it the retry runs after the commit and gets through. Parking must
// settle exactly the slots that precede the commit in that order.
func TestParkTieRule(t *testing.T) {
	for _, holderFirst := range []bool{false, true} {
		name := "requester-below-holder"
		if holderFirst {
			name = "requester-above-holder"
		}
		t.Run(name, func(t *testing.T) {
			base := stallRun{vm: func() htm.VersionManager { return logtmse.New() }, hold: 4000, rounds: 1, holderFirst: holderFirst}
			req, holder := 0, 1
			if holderFirst {
				req, holder = 1, 0
			}
			// The requester's retry slots do not depend on when the holder
			// commits, and the commit cycle moves one for one with hold:
			// read both from a traced run, then choose hold so the commit
			// lands on a slot well after the requester parked.
			_, _, rec := base.run(t, true)
			var slots []sim.Cycles
			var commitAt sim.Cycles
			for _, e := range rec.Events() {
				switch {
				case e.Kind == trace.NACK && e.Core == req:
					slots = append(slots, e.Cycle)
				case e.Kind == trace.Commit && e.Core == holder:
					commitAt = e.Cycle
				}
			}
			if len(slots) < 40 || commitAt == 0 {
				t.Fatalf("setup: %d NACKs, commit at %d", len(slots), commitAt)
			}
			target := slots[30]
			tie := base
			tie.hold = base.hold - uint32(commitAt-target)

			_, want, rec := tie.run(t, true)
			refused := false
			for _, e := range rec.Events() {
				if e.Kind == trace.NACK && e.Core == req && e.Cycle == target {
					refused = true
				}
				if e.Kind == trace.Commit && e.Core == holder && e.Cycle != target {
					t.Fatalf("setup: commit at %d, want %d", e.Cycle, target)
				}
			}
			if refused != (req < holder) {
				t.Fatalf("per-retry loop: retry at the commit cycle refused=%v with requester %d, holder %d", refused, req, holder)
			}
			m, got, _ := tie.run(t, false)
			if m.SettledRetries() == 0 {
				t.Fatal("the requester never parked")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parked run differs from the per-retry loop:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestParkHotPathAllocs pins a parked steady state at zero allocations
// per settled retry: stretching every stall a hundredfold multiplies the
// settled retries and leaves the run's allocations unchanged. The SUV
// run also exercises the redirect line log and the summary signal.
func TestParkHotPathAllocs(t *testing.T) {
	for name, vm := range map[string]func() htm.VersionManager{
		"LogTM-SE": func() htm.VersionManager { return logtmse.New() },
		"SUV-TM":   func() htm.VersionManager { return suvtm.New() },
	} {
		t.Run(name, func(t *testing.T) {
			allocs := func(hold uint32) (float64, uint64) {
				s := stallRun{vm: vm, hold: hold, rounds: 8}
				var settled uint64
				n := testing.AllocsPerRun(3, func() {
					m, _, _ := s.run(t, false)
					settled = m.SettledRetries()
				})
				return n, settled
			}
			shortAllocs, shortSettled := allocs(2_000)
			longAllocs, longSettled := allocs(200_000)
			if longSettled < 50*shortSettled || shortSettled == 0 {
				t.Fatalf("settled %d retries at hold 2000 and %d at hold 200000", shortSettled, longSettled)
			}
			if longAllocs != shortAllocs {
				t.Fatalf("%v allocations with %d settled retries, %v with %d", shortAllocs, shortSettled, longAllocs, longSettled)
			}
		})
	}
}

// TestCounterWordsCoverCounters pins the layout the machine's settle step
// relies on: stats.Counters holds uint64 fields and nothing else, so it
// can be diffed and scaled as an array of words.
func TestCounterWordsCoverCounters(t *testing.T) {
	typ := reflect.TypeOf(stats.Counters{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Uint64 {
			t.Errorf("stats.Counters.%s is %s, not uint64", f.Name, f.Type)
		}
	}
	if typ.Size() != uintptr(typ.NumField())*8 {
		t.Errorf("stats.Counters is %d bytes for %d fields", typ.Size(), typ.NumField())
	}
}

// TestParkWakesOnSummaryFlip parks a requester whose translation the
// summary signature filters, then lets a third core commit redirects of
// lines that together cover the parked line's summary bits. From that
// commit on the summary answers "maybe" for the parked line, so each
// retry walks the redirect table and counts a summary false positive:
// the requester must wake at the commit, although neither its holder
// nor any signature it conflicts with changed.
func TestParkWakesOnSummaryFlip(t *testing.T) {
	const sigBits = 64
	build := func(alloc *mem.Allocator) []workload.Program {
		region := workload.NewRegion(alloc, 256)
		parked := sim.LineOf(region.LineAddr(0))
		var pi [signature.NumHashes]uint32
		signature.Indices(signature.HashH3, parked, sigBits, &pi)
		need := map[uint32]bool{}
		for _, b := range pi {
			need[b] = true
		}
		// The covering lines must not alias the parked line on their own,
		// or the holder's read signature would refuse the writer too.
		writer := workload.NewBuilder().Compute(5_000).Begin(2)
		for i := 1; i < region.Lines && len(need) > 0; i++ {
			var mi [signature.NumHashes]uint32
			signature.Indices(signature.HashH3, sim.LineOf(region.LineAddr(i)), sigBits, &mi)
			inside, hits := true, false
			for _, b := range mi {
				inside = inside && slices.Contains(pi[:], b)
				hits = hits || need[b]
			}
			if inside || !hits {
				continue
			}
			for _, b := range mi {
				delete(need, b)
			}
			writer.StoreImm(region.WordAddr(i, 0), 1)
		}
		if len(need) > 0 {
			t.Fatal("setup: no covering lines")
		}
		holder := workload.NewBuilder().Begin(1).Load(0, region.WordAddr(0, 0)).Compute(30_000).Commit()
		requester := workload.NewBuilder().Compute(100).StoreImm(region.WordAddr(0, 0), 9)
		return []workload.Program{
			holder.Barrier(0).Build(),
			requester.Barrier(0).Build(),
			writer.Commit().Barrier(0).Build(),
		}
	}
	run := func(traced bool) (*htm.Machine, *htm.Result) {
		memory := mem.NewMemory()
		alloc := mem.NewAllocator(arenaHeapBase, arenaHeapSize)
		cfg := htm.DefaultConfig(3)
		cfg.SigBits = sigBits
		m := htm.New(cfg, suvtm.New(), build(alloc), memory, alloc)
		if traced {
			m.SetTracer(trace.NewRecorder(1))
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}
	traced, want := run(true)
	if traced.Cores[1].Counters.SummaryFalsePos == 0 {
		t.Fatal("setup: the summary never flipped for the parked line")
	}
	m, got := run(false)
	if m.SettledRetries() == 0 {
		t.Fatal("the requester never parked")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parked run differs from the per-retry loop:\n got %+v\nwant %+v", got, want)
	}
}
