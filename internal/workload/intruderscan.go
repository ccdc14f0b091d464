package workload

import (
	"fmt"

	"suvtm/internal/mem"
	"suvtm/internal/sim"
)

func init() { Register("intruderscan", GenIntruderScan) }

// GenIntruderScan is a phase-alternating variant of intruder: rounds of
// a long non-transactional scan over a private, L1-overflowing buffer,
// fenced by barriers from short intruder-style bursts on the shared
// work queue and detector dictionary, the conflict-heavy phase.
//
// Every capture buffer is 64 KB (twice the L1, so each sweep round
// misses throughout) aligned to 128 KB, while the shared detector
// structures are spread in 64 KB-aligned chunks over the odd 64 KB
// stripes of the L2's 1 MB way-size period, the way a real intruder
// dictionary scatters its buckets across the heap. The layout is fixed
// because it decides the simulated addresses, and with them the L2
// sets and directory entries every access uses: the golden outcome
// table and the suvbench digests pin it, so changing it is a model
// change.
func GenIntruderScan(cfg GenConfig, alloc *mem.Allocator, m *mem.Memory) *App {
	const (
		scanLines = 1024      // 64 KB per core: twice the 32 KB L1, every scan round misses
		stripe    = 64 << 10  // one sixteenth of the 1 MB L2 way-size
		bankAlign = 128 << 10 // buffers sit on even stripes; detector chunks on odd ones
		dictLines = 256
		dictChunk = 32 // dictLines/dictChunk chunks, one per odd stripe
		rounds    = 4
		txPerRnd  = 10
	)
	// oddStripe positions the allocator inside the next odd stripe; the
	// skipped padding is dead address space (the simulated memory is
	// sparse, so it costs nothing).
	oddStripe := func() {
		if base := alloc.Alloc(sim.LineBytes, stripe); (uint64(base)/stripe)%2 == 0 {
			alloc.Alloc(sim.LineBytes, stripe)
		}
	}
	var dictChunks [dictLines / dictChunk]Region
	for k := range dictChunks {
		oddStripe()
		dictChunks[k] = NewRegion(alloc, dictChunk)
	}
	// The queue is the hottest shared line of all — every transaction
	// pops it — and rides on the last chunk's stripe: buckets are laid
	// out in index order and the Zipf sampler skews toward low indices,
	// making that the coldest detector stripe.
	queue := NewRegion(alloc, 1)
	// dictWord addresses word idx%8 of bucket idx through the chunked
	// layout.
	dictWord := func(idx int) sim.Addr {
		return dictChunks[idx/dictChunk].WordAddr(idx%dictChunk, idx%8)
	}
	zipfD := NewZipf(dictLines, 0.6)

	bufs := make([]Region, cfg.Cores)
	for c := range bufs {
		base := alloc.Alloc(scanLines*sim.LineBytes, bankAlign)
		bufs[c] = Region{Base: base, Lines: scanLines}
		// Materialize every scanned word at generation time: a real
		// capture buffer is mapped before the detector loop starts.
		for i := 0; i < scanLines; i++ {
			m.Write(bufs[c].WordAddr(i, 0), 0)
		}
	}

	rnds := cfg.scaled(rounds)
	programs := make([]Program, cfg.Cores)
	var deqs, dictAdds int64
	for c := 0; c < cfg.Cores; c++ {
		rng := cfg.rng(uint64(c)*23 + 509)
		b := NewBuilder()
		b.Reserve(rnds*(2+scanLines*10+txPerRnd*9) + 1)
		for r := 0; r < rnds; r++ {
			// Scan phase: every core sweeps its private capture buffer,
			// checksumming and stamping each fragment in place. The
			// barrier guarantees no transaction is live anywhere during
			// the sweep.
			b.Barrier(uint32(2 * r))
			for i := 0; i < scanLines; i++ {
				// One fragment: fetch the header (the L1 miss), read the
				// payload words out of the now-resident line, fold them
				// through the checksum registers, stamp the header and
				// write it back in place (Shared→Modified upgrade).
				b.Load(1, bufs[c].WordAddr(i, 0))
				b.Load(3, bufs[c].WordAddr(i, 2))
				b.Load(4, bufs[c].WordAddr(i, 4))
				b.Load(5, bufs[c].WordAddr(i, 6))
				b.AddReg(2, 1)
				b.AddReg(2, 3)
				b.AddReg(2, 4)
				b.AddReg(2, 5)
				b.AddImm(1, 1)
				b.Store(bufs[c].WordAddr(i, 0), 1)
			}
			// Conflict phase: intruder-shaped bursts — pop the shared
			// queue (one hot word) and fold the fragment into the
			// Zipf-skewed dictionary.
			b.Barrier(uint32(2*r + 1))
			for t := 0; t < txPerRnd; t++ {
				b.Begin(0)
				rmwAdd(b, queue.WordAddr(0, 0), 1)
				idx := zipfD.Sample(rng)
				rmwAdd(b, dictWord(idx), 1)
				b.Commit()
				deqs++
				dictAdds++
				b.Compute(20)
			}
		}
		b.Barrier(uint32(2 * rnds))
		programs[c] = b.Build()
	}
	scanAdds := int64(cfg.Cores) * int64(rnds) * scanLines
	return &App{
		Name:           "intruderscan",
		HighContention: true,
		InputDesc:      fmt.Sprintf("-b%d -r%d -t%d", scanLines, rnds, txPerRnd),
		MeanTxLen:      9,
		Programs:       programs,
		Check: combineChecks(
			checkRegionSum("intruderscan/queue", queue, 1, deqs),
			func(mr MemReader) error {
				var sum int64
				for i := 0; i < dictLines; i++ {
					sum += int64(mr.Read(dictWord(i)))
				}
				if sum != dictAdds {
					return fmt.Errorf("intruderscan: dict sum = %d, want %d", sum, dictAdds)
				}
				return nil
			},
			func(mr MemReader) error {
				var sum int64
				for c := range bufs {
					for i := 0; i < scanLines; i++ {
						sum += int64(mr.Read(bufs[c].WordAddr(i, 0)))
					}
				}
				if sum != scanAdds {
					return fmt.Errorf("intruderscan: buffer sum = %d, want %d", sum, scanAdds)
				}
				return nil
			},
		),
	}
}
