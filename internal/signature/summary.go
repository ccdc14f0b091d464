package signature

import "suvtm/internal/sim"

// Summary is the redirect summary signature of Section IV-B: a Bloom
// signature over the set of currently redirected addresses, paired with a
// bit-vector recording which signature bits were written exactly once.
// The pair works as a degenerate Bloom counter (Figure 5): an address can
// be removed by unsetting its unique bits, and incomplete removal only
// costs wasteful redirect-table lookups, never correctness, because the
// signature is allowed to represent a superset of redirected addresses.
//
// Every memory access — transactional or not, to support strong
// isolation — consults this structure first; a negative answer skips the
// redirect-table lookup entirely.
type Summary struct {
	kind HashKind
	bits uint32
	sig  []uint64 // the redirect summary signature
	once []uint64 // bits set by exactly one Add since they were last 0
	// saturated makes Test answer "maybe redirected" for every address
	// (the fault injector's saturation storm): every access pays a
	// wasteful redirect-table lookup, which is the documented cost of a
	// polluted summary — a superset is always safe. Add/Delete keep
	// maintaining the real bits underneath so behavior is exact again
	// the moment the flag drops, and Clear does not reset it.
	saturated bool
	// live counts the set signature bits, giving Test an O(1) negative
	// when no address is redirected — the common steady state, and the
	// one every single memory access starts from (strong isolation makes
	// Test a universal prefix of the load/store path).
	live int
	// muts counts the calls that may change Test's answers (Add, Delete,
	// Clear, SetSaturated): the mutation signal for callers that cache
	// an answer.
	muts uint64
}

// NewSummary creates a summary signature with numBits bits (a power of
// two). The paper's configuration is 2 Kbit signature + 2 Kbit vector.
func NewSummary(numBits uint32, kind HashKind) *Summary {
	if numBits == 0 || numBits&(numBits-1) != 0 {
		panic("signature: summary size must be a positive power of two")
	}
	words := (numBits + 63) / 64
	return &Summary{kind: kind, bits: numBits, sig: make([]uint64, words), once: make([]uint64, words)}
}

// Add records that line is now redirected.
func (s *Summary) Add(line sim.Line) {
	s.muts++
	var idx [NumHashes]uint32
	hashIndices(s.kind, line, s.bits, &idx)
	for _, i := range idx {
		w, b := i/64, uint64(1)<<(i%64)
		if s.sig[w]&b == 0 {
			s.sig[w] |= b
			s.once[w] |= b // first writer: the bit is unique
			s.live++
		} else {
			s.once[w] &^= b // second writer: no longer unique
		}
	}
}

// Delete removes line from the summary by unsetting its unique bits.
// Bits shared with other addresses are left set, so the summary remains
// a superset of the redirected set (Figure 5, "Deleting @1").
func (s *Summary) Delete(line sim.Line) {
	s.muts++
	var idx [NumHashes]uint32
	hashIndices(s.kind, line, s.bits, &idx)
	for _, i := range idx {
		w, b := i/64, uint64(1)<<(i%64)
		if s.once[w]&b != 0 {
			s.sig[w] &^= b
			s.once[w] &^= b
			s.live--
		}
	}
}

// Test reports whether line may be redirected. A false result is
// definitive (no table lookup needed); a true result may be a false
// positive that costs a wasteful lookup.
func (s *Summary) Test(line sim.Line) bool {
	if s.saturated {
		return true
	}
	if s.live == 0 {
		return false
	}
	for n := 0; n < NumHashes; n++ { // lazy probes: most misses die on hash 0
		i := indexN(s.kind, line, s.bits, n)
		if s.sig[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

// SetSaturated forces (or releases) the saturation overlay; see the
// field comment.
func (s *Summary) SetSaturated(on bool) {
	s.muts++
	s.saturated = on
}

// Clear resets both the signature and the bit-vector.
func (s *Summary) Clear() {
	s.muts++
	for i := range s.sig {
		s.sig[i] = 0
		s.once[i] = 0
	}
	s.live = 0
}

// Mutations returns how many calls so far could have changed Test's
// answers; an unchanged count means every answer is unchanged.
func (s *Summary) Mutations() uint64 { return s.muts }

// SigBitString renders the low n signature bits MSB-first (Figure 5 tests).
func (s *Summary) SigBitString(n uint32) string { return bitString(s.sig, n) }

// OnceBitString renders the low n bit-vector bits MSB-first (Figure 5 tests).
func (s *Summary) OnceBitString(n uint32) string { return bitString(s.once, n) }

func bitString(words []uint64, n uint32) string {
	out := make([]byte, n)
	for i := uint32(0); i < n; i++ {
		bit := n - 1 - i
		if words[bit/64]&(1<<(bit%64)) != 0 {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
