package signature

import (
	"testing"
	"testing/quick"

	"suvtm/internal/sim"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	f := func(lines []uint32) bool {
		b := NewBloom(2048, HashH3)
		for _, l := range lines {
			b.Add(sim.Line(l))
		}
		for _, l := range lines {
			if !b.Test(sim.Line(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomClear(t *testing.T) {
	b := NewBloom(256, HashH3)
	b.Add(1)
	b.Add(99)
	if b.Empty() {
		t.Fatal("empty after adds")
	}
	b.Clear()
	if !b.Empty() || b.Test(1) || b.Test(99) {
		t.Fatal("clear incomplete")
	}
}

func TestBloomFalsePositiveRateReasonable(t *testing.T) {
	b := NewBloom(2048, HashH3)
	for i := sim.Line(0); i < 64; i++ {
		b.Add(i)
	}
	fp := 0
	const probes = 10000
	for i := sim.Line(1000000); i < 1000000+probes; i++ {
		if b.Test(i) {
			fp++
		}
	}
	// 64 lines x 2 hashes over 2048 bits: fill ~6%, expected fp ~0.4%.
	if rate := float64(fp) / probes; rate > 0.02 {
		t.Fatalf("false-positive rate %v too high", rate)
	}
}

func TestBloomOrAndIntersects(t *testing.T) {
	a := NewBloom(512, HashH3)
	b := NewBloom(512, HashH3)
	a.Add(10)
	b.Add(20)
	if a.Intersects(b) && a.PopCount() <= 2 && b.PopCount() <= 2 {
		// Possible only through aliasing; with distinct hash outputs the
		// sets should differ for these inputs.
		t.Log("unexpected aliasing between 10 and 20")
	}
	a.Or(b)
	if !a.Test(10) || !a.Test(20) {
		t.Fatal("Or lost members")
	}
	if !a.Intersects(b) {
		t.Fatal("superset does not intersect subset")
	}
}

func TestBloomSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	NewBloom(256, HashH3).Or(NewBloom(512, HashH3))
}

func TestBloomBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-power-of-two size")
		}
	}()
	NewBloom(100, HashH3)
}

// TestFig5Exact replays Figure 5 of the paper bit for bit: an 8-bit
// summary signature with H1(x) = x mod 8 and H2(x) = (x xor 2x) mod 8.
func TestFig5Exact(t *testing.T) {
	s := NewSummary(8, HashFig5)
	check := func(step, sig, once string) {
		t.Helper()
		if got := s.SigBitString(8); got != sig {
			t.Fatalf("%s: signature = %s, want %s", step, got, sig)
		}
		if got := s.OnceBitString(8); got != once {
			t.Fatalf("%s: bit-vector = %s, want %s", step, got, once)
		}
	}
	check("initialization", "00000000", "00000000")
	s.Add(1)
	check("adding @1", "00001010", "00001010")
	s.Add(3)
	check("adding @3", "00101010", "00100010")
	if !s.Test(1) {
		t.Fatal("inquiring @1 failed")
	}
	check("inquiring @1", "00101010", "00100010")
	s.Delete(1)
	check("deleting @1", "00101000", "00100000")
	// After deletion @1 must be gone but @3 must remain (bit 3 is shared
	// between H1(3) and H2(1), so it stays set — superset semantics).
	if s.Test(1) {
		t.Fatal("@1 still present after delete")
	}
	if !s.Test(3) {
		t.Fatal("@3 lost by deleting @1")
	}
}

func TestSummarySupersetUnderChurn(t *testing.T) {
	// Whatever the add/delete sequence, the summary must remain a
	// superset of the live set (no false negatives).
	f := func(ops []uint16) bool {
		s := NewSummary(256, HashH3)
		live := map[sim.Line]int{}
		for _, op := range ops {
			line := sim.Line(op % 97)
			if op%3 == 0 && live[line] > 0 {
				live[line]--
				s.Delete(line)
			} else {
				live[line]++
				s.Add(line)
			}
		}
		for line, n := range live {
			if n > 0 && !s.Test(line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryAddDeleteRoundTrip(t *testing.T) {
	s := NewSummary(2048, HashH3)
	for i := sim.Line(0); i < 50; i++ {
		s.Add(i)
	}
	for i := sim.Line(0); i < 50; i++ {
		s.Delete(i)
	}
	// With low fill, most deletions should fully remove their address.
	present := 0
	for i := sim.Line(0); i < 50; i++ {
		if s.Test(i) {
			present++
		}
	}
	if present > 10 {
		t.Fatalf("%d of 50 deleted addresses still present", present)
	}
	s.Clear()
	for i := sim.Line(0); i < 50; i++ {
		if s.Test(i) {
			t.Fatal("Clear incomplete")
		}
	}
}

func TestBloomBitString(t *testing.T) {
	b := NewBloom(8, HashFig5)
	b.Add(1) // bits 1 and 3
	if got := b.BitString(8); got != "00001010" {
		t.Fatalf("BitString = %s", got)
	}
}

// TestSummaryMutationsCountChanges pins the summary's mutation signal:
// every call that can change an answer moves the count, and Test does not.
func TestSummaryMutationsCountChanges(t *testing.T) {
	s := NewSummary(64, HashH3)
	n := s.Mutations()
	s.Test(5)
	if s.Mutations() != n {
		t.Fatal("Test moved the mutation count")
	}
	for i, mutate := range []func(){
		func() { s.Add(5) },
		func() { s.Delete(5) },
		func() { s.SetSaturated(true) },
		func() { s.Clear() },
	} {
		mutate()
		if s.Mutations() == n {
			t.Fatalf("mutation %d left the count unchanged", i)
		}
		n = s.Mutations()
	}
}
