package workload

import (
	"fmt"

	"suvtm/internal/mem"
	"suvtm/internal/sim"
)

func init() { Register("sessionstore", GenSessionStore) }

// GenSessionStore models an in-memory session store fronting a shared
// catalog: each core services a stream of requests against its own
// session table — an L1-resident private region it reads, computes over
// and updates in place — and only rarely opens a transaction to bump a
// counter in the shared, Zipf-skewed catalog. Every steady-state access
// of the request loop is an L1 hit on a previously written private
// word; the shared-catalog transactions keep the invariant check
// end-to-end transactional.
func GenSessionStore(cfg GenConfig, alloc *mem.Allocator, m *mem.Memory) *App {
	const (
		sessionLines = 256 // 16 KB per core: half the 32 KB L1, 2 ways of each set
		catalogLines = 64
		txEvery      = 211 // requests per shared-catalog transaction (prime: no beat with the session stride)
	)
	catalog := NewZipf(catalogLines, 1.2)
	shared := NewRegion(alloc, catalogLines)
	sessions := make([]Region, cfg.Cores)
	for c := range sessions {
		sessions[c] = NewRegion(alloc, sessionLines)
		for i := 0; i < sessionLines; i++ {
			m.Write(sessions[c].WordAddr(i, 0), 0)
		}
	}

	requests := cfg.scaled(1200)
	programs := make([]Program, cfg.Cores)
	var privAdds, txAdds int64
	for c := 0; c < cfg.Cores; c++ {
		rng := cfg.rng(uint64(c)*31 + 1009)
		b := NewBuilder()
		b.Reserve(sessionLines*3 + requests*25 + (requests/txEvery+2)*6 + 1)
		// Prime the session table: one update per line pulls it into the
		// L1 exclusively, so the request loop below runs entirely on
		// Modified hits.
		for i := 0; i < sessionLines; i++ {
			rmwAdd(b, sessions[c].WordAddr(i, 0), 1)
			privAdds++
		}
		for r := 0; r < requests; r++ {
			// Parse/route the request, look up the session, touch a few
			// neighbors (LRU bookkeeping), update the session record.
			b.Compute(8)
			s := rng.Intn(sessionLines)
			b.Load(1, sessions[c].WordAddr(s, 0))
			b.AddReg(2, 1)
			b.Load(1, sessions[c].WordAddr((s+7)%sessionLines, 0))
			b.AddReg(2, 1)
			// Fold the loaded fields through the record update's register
			// work at instruction grain — checksum, touch counter, LRU
			// stamp arithmetic. A request-servicing loop spends most of its
			// instructions here, between the memory touches, and modeling
			// them as individual ops (rather than one coarse Compute event)
			// is what an instruction-grain execution-driven trace looks like.
			b.LoadImm(3, sim.Word(r))
			for k := 0; k < 7; k++ {
				b.AddReg(3, 1)
				b.AddImm(3, int64(2*k+1))
			}
			b.AddReg(2, 3)
			b.Compute(6)
			rmwAdd(b, sessions[c].WordAddr(s, 0), 1)
			privAdds++
			if r%txEvery == txEvery-1 || r == requests-1 {
				// Rare shared-catalog update: a short transaction against
				// the Zipf-popular entries (the final request always issues
				// one so scaled-down test runs stay transactional).
				b.Begin(0)
				b.Compute(10)
				rmwAdd(b, shared.WordAddr(catalog.Sample(rng), 0), 1)
				b.Commit()
				txAdds++
			}
		}
		b.Barrier(0)
		programs[c] = b.Build()
	}
	return &App{
		Name:      "sessionstore",
		InputDesc: fmt.Sprintf("-s%d -r%d -t%d", sessionLines, requests, txEvery),
		MeanTxLen: 7,
		Programs:  programs,
		Check: combineChecks(
			checkRegionSum("sessionstore/catalog", shared, 1, txAdds),
			func(mr MemReader) error {
				var sum int64
				for c := range sessions {
					for i := 0; i < sessionLines; i++ {
						sum += int64(mr.Read(sessions[c].WordAddr(i, 0)))
					}
				}
				if sum != privAdds {
					return fmt.Errorf("sessionstore: session sum = %d, want %d", sum, privAdds)
				}
				return nil
			},
		),
	}
}
