package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"suvtm/internal/htm"
	"suvtm/internal/mem"
	"suvtm/internal/sim"
	"suvtm/internal/trace"
	"suvtm/internal/workload"
)

// parkSide is everything one run computes that parking stalled
// requesters must leave unchanged, plus how many retries it settled.
type parkSide struct {
	res     *htm.Result
	err     error
	pages   uint64
	entries int
	image   map[sim.Addr]sim.Word
	clocks  []uint64 // Redirect.Version, then each core's first-level table clock
	settled uint64
}

// parkCase is one run of the differential matrix: a config, a scheme and
// the programs, generated on the run's own memory and allocator.
type parkCase struct {
	name   string
	cfg    htm.Config
	scheme Scheme
	build  func(*mem.Allocator, *mem.Memory) []workload.Program
	// mustPark requires the parked side to settle at least one retry.
	mustPark bool
}

// run executes the case once. traced attaches a one-event recorder,
// which keeps every retry on the per-retry loop.
func (pc parkCase) run(traced bool) (parkSide, error) {
	vm, err := NewVM(pc.scheme)
	if err != nil {
		return parkSide{}, err
	}
	memory := mem.NewMemory()
	alloc := mem.NewAllocator(heapBase, heapSize)
	m := htm.New(pc.cfg, vm, pc.build(alloc, memory), memory, alloc)
	if traced {
		m.SetTracer(trace.NewRecorder(1))
	}
	res, err := m.Run()
	side := parkSide{
		res: res, err: err,
		pages:   m.Redirect.Pool().Pages(),
		entries: m.Redirect.EntryCount(),
		image:   memory.Snapshot(),
		settled: m.SettledRetries(),
	}
	side.clocks = append(side.clocks, m.Redirect.Version())
	for i := range m.Cores {
		side.clocks = append(side.clocks, m.Redirect.L1Clock(i))
	}
	return side, nil
}

// specCase turns a spec into a case, configured the way runSpec
// configures a pure run.
func specCase(spec Spec, mustPark bool) parkCase {
	cores, seed, scale := spec.resolved()
	cfg := htm.DefaultConfig(cores)
	cfg.Seed = seed
	if spec.Tweak != nil {
		spec.Tweak(&cfg)
	}
	return parkCase{
		name:   fmt.Sprintf("%s/%s/%dc/seed%d/scale%g", spec.App, spec.Scheme, cores, seed, scale),
		cfg:    cfg,
		scheme: spec.Scheme,
		build: func(alloc *mem.Allocator, memory *mem.Memory) []workload.Program {
			gen, err := workload.Get(spec.App)
			if err != nil {
				panic(err)
			}
			return gen(workload.GenConfig{Cores: cores, Seed: seed, Scale: scale}, alloc, memory).Programs
		},
		mustPark: mustPark,
	}
}

// parkProgram is a seeded random program for one core of a contended
// machine: transactions over a few hot lines with closed nested frames,
// open nested commits with compensations, suspended stretches of
// non-transactional work, and plain accesses between transactions. The
// work a suspended transaction's core runs meanwhile touches only its
// private lines: a filler access stalled on a transaction that itself
// waits for the suspended one would never resume it.
func parkProgram(rng *sim.RNG, hot, private workload.Region, txs int) workload.Program {
	b := workload.NewBuilder()
	word := func() sim.Addr { return hot.WordAddr(rng.Intn(hot.Lines), rng.Intn(8)) }
	filler := func() {
		b.Load(uint8(rng.Intn(4)), private.WordAddr(rng.Intn(private.Lines), rng.Intn(8)))
		b.StoreImm(private.WordAddr(rng.Intn(private.Lines), rng.Intn(8)), sim.Word(rng.Intn(100)))
	}
	access := func() {
		switch rng.Intn(5) {
		case 0, 1:
			b.Load(uint8(rng.Intn(4)), word())
		case 2:
			b.Store(word(), uint8(rng.Intn(4)))
		case 3:
			b.StoreImm(word(), sim.Word(rng.Intn(100)))
		case 4:
			b.Compute(uint32(rng.Intn(40)))
		}
	}
	for i := 0; i < txs; i++ {
		b.Begin(uint32(rng.Intn(3)))
		for j := rng.Intn(4); j >= 0; j-- {
			access()
		}
		switch rng.Intn(4) {
		case 0:
			b.Begin(3)
			access()
			access()
			b.Commit()
		case 1:
			b.Begin(4)
			access()
			access()
			b.CommitOpen(func(cb *workload.Builder) { cb.StoreImm(word(), 7) })
		case 2:
			b.Suspend(uint32(5 + rng.Intn(20)))
			filler()
			b.Resume(uint32(5 + rng.Intn(20)))
		}
		access()
		b.Commit()
		b.Compute(uint32(rng.Intn(60)))
		if rng.Intn(3) == 0 {
			access()
		}
	}
	b.Barrier(0)
	return b.Build()
}

// randomCase is a 4–8-core machine running parkProgram on every core
// over three or four hot lines, with two private lines per core. A
// starved machine has 128-bit signatures, so the summary and the
// conflict signatures alias often, and two-entry first-level redirect
// tables over a four-entry second level, so the tables' LRU order
// decides evictions.
func randomCase(seed uint64, scheme Scheme, starved bool) parkCase {
	cores := 4 + int(seed%5)
	cfg := htm.DefaultConfig(cores)
	cfg.Seed = seed
	cfg.MaxCycles = 50_000_000
	name := fmt.Sprintf("random/%s/%dc/seed%d", scheme, cores, seed)
	if starved {
		cfg.SigBits = 128
		cfg.Redirect.L1Entries, cfg.Redirect.L2Entries, cfg.Redirect.L2Ways = 2, 4, 2
		name += "/starved"
	}
	return parkCase{
		name:     name,
		cfg:      cfg,
		scheme:   scheme,
		mustPark: true,
		build: func(alloc *mem.Allocator, _ *mem.Memory) []workload.Program {
			rng := sim.NewRNG(seed)
			hot := workload.NewRegion(alloc, 3+int(seed%2))
			progs := make([]workload.Program, cores)
			for i := range progs {
				progs[i] = parkProgram(rng, hot, workload.NewRegion(alloc, 2), 30)
			}
			return progs
		},
	}
}

// parkMatrix is the differential matrix; short keeps a reduced one.
func parkMatrix(short bool) []parkCase {
	var cases []parkCase
	// The golden grid: parking must engage on the high-contention apps
	// under the three eager Figure 6 schemes.
	for _, spec := range goldenRuns() {
		must := spec.Cores == 16 && workload.IsHighContention(spec.App) && slices.Contains(Fig6Schemes, spec.Scheme)
		cases = append(cases, specCase(spec, must))
	}
	full := []string{"bayes", "labyrinth", "yada"}
	schemes := AllSchemes
	if short {
		full, schemes = []string{"yada"}, Fig6Schemes
	}
	for _, app := range full {
		for _, s := range schemes {
			cases = append(cases, specCase(Spec{App: app, Scheme: s, Cores: 16, Seed: 1, Scale: 1}, s != DynTM && s != DynTMSUV))
		}
	}
	olderWins := func(c *htm.Config) { c.Policy = htm.PolicyOlderWins }
	hc := workload.HighContentionApps
	if short {
		hc = hc[:2]
	}
	for _, app := range hc {
		for _, s := range []Scheme{LogTMSE, SUVTM} {
			cases = append(cases, specCase(Spec{App: app, Scheme: s, Cores: 16, Seed: 1, Scale: 0.5, Tweak: olderWins}, false))
		}
	}
	if !short {
		for _, s := range []Scheme{LogTMSE, SUVTM} {
			cases = append(cases, specCase(Spec{App: "intruder", Scheme: s, Cores: 32, Seed: 1, Scale: 1}, true))
		}
	}
	seeds := uint64(24)
	if short {
		seeds = 6
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, s := range AllSchemes {
			cases = append(cases, randomCase(seed, s, false), randomCase(seed, s, true))
		}
	}
	return cases
}

// TestParkingMatchesRetryLoop is the differential net under parked NACK
// retries: every case runs twice, plainly (stalled requesters park and
// their skipped retries are settled in bulk) and with a recorder
// attached (every retry runs), and the two runs must finish and agree
// on the result, the redirect pool, entries, version and table clocks,
// and the final memory image.
func TestParkingMatchesRetryLoop(t *testing.T) {
	for _, pc := range parkMatrix(testing.Short()) {
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			parked, err := pc.run(false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := pc.run(true)
			if err != nil {
				t.Fatal(err)
			}
			if parked.err != nil {
				t.Fatal(parked.err)
			}
			if traced.settled != 0 {
				t.Fatalf("the traced run settled %d retries; a tracer must keep every retry", traced.settled)
			}
			if pc.mustPark && parked.settled == 0 {
				t.Fatal("no stalled requester parked")
			}
			compareParkSides(t, parked, traced)
		})
	}
}

// compareParkSides fails t unless the parked and traced runs agree.
func compareParkSides(t *testing.T, parked, traced parkSide) {
	t.Helper()
	if (parked.err == nil) != (traced.err == nil) {
		t.Fatalf("parked error %v, traced error %v", parked.err, traced.err)
	}
	if parked.err != nil {
		var pw, tw *htm.WatchdogError
		if errors.As(parked.err, &pw) && errors.As(traced.err, &tw) {
			if pw.At != tw.At || pw.PostMortem() != tw.PostMortem() {
				t.Fatalf("watchdog differs:\nparked at %d\n%s\ntraced at %d\n%s", pw.At, pw.PostMortem(), tw.At, tw.PostMortem())
			}
		} else if parked.err.Error() != traced.err.Error() {
			t.Fatalf("parked error %v, traced error %v", parked.err, traced.err)
		}
	} else if !reflect.DeepEqual(parked.res, traced.res) {
		t.Fatalf("results differ:\nparked %+v\ntraced %+v", parked.res, traced.res)
	}
	if parked.pages != traced.pages || parked.entries != traced.entries {
		t.Fatalf("redirect state differs: parked %d pages %d entries, traced %d pages %d entries",
			parked.pages, parked.entries, traced.pages, traced.entries)
	}
	if !slices.Equal(parked.clocks, traced.clocks) {
		t.Fatalf("redirect version and first-level table clocks differ: parked %v, traced %v", parked.clocks, traced.clocks)
	}
	if !reflect.DeepEqual(parked.image, traced.image) {
		t.Fatal("final memory images differ")
	}
}

// TestParkingWatchdogMatchesRetryLoop runs a known livelock (labyrinth
// under LogTM-SE at 16 cores, scale 1, seed 999; see ROADMAP.md) into
// the watchdog: parked cores must be settled up to MaxCycles so the
// watchdog trips on the same event with the same post-mortem.
func TestParkingWatchdogMatchesRetryLoop(t *testing.T) {
	limits := []sim.Cycles{12_000_000, 25_000_000}
	if testing.Short() {
		limits = limits[:1]
	}
	for _, limit := range limits {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			t.Parallel()
			pc := specCase(Spec{App: "labyrinth", Scheme: LogTMSE, Cores: 16, Seed: 999, Scale: 1,
				Tweak: func(c *htm.Config) { c.MaxCycles = limit }}, true)
			parked, err := pc.run(false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := pc.run(true)
			if err != nil {
				t.Fatal(err)
			}
			var w *htm.WatchdogError
			if !errors.As(parked.err, &w) {
				t.Fatalf("want a watchdog error, got %v", parked.err)
			}
			if limit == 12_000_000 && w.At != 12_000_034 {
				t.Fatalf("watchdog tripped at %d, want 12000034", w.At)
			}
			if parked.settled == 0 {
				t.Fatal("no stalled requester parked")
			}
			compareParkSides(t, parked, traced)
		})
	}
}
