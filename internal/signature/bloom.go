package signature

import (
	"math/bits"

	"suvtm/internal/sim"
)

// Bloom is a plain Bloom-filter signature over cache-line addresses, used
// as the per-core read and write signatures for eager conflict detection.
// Adding is idempotent; the only way to remove addresses is Clear (which
// is what commit and abort do to the read/write signatures).
type Bloom struct {
	kind HashKind
	bits uint32
	word []uint64
	// saturated, when set, makes the signature answer as if every bit
	// were 1 — the fault injector's saturation storm. It is a virtual
	// overlay: the underlying bits keep tracking the real address set
	// (so clearing the flag restores exact behavior) and Clear does not
	// reset it (only the injector window does). Saturation can only
	// produce extra false positives, never false negatives, so it
	// degrades performance without endangering correctness.
	saturated bool
}

// NewBloom creates a signature with the given number of bits (a power of
// two, at least 64 for the H3 family; Figure 5 tests use 8 bits).
func NewBloom(numBits uint32, kind HashKind) *Bloom {
	if numBits == 0 || numBits&(numBits-1) != 0 {
		panic("signature: bloom size must be a positive power of two")
	}
	words := (numBits + 63) / 64
	return &Bloom{kind: kind, bits: numBits, word: make([]uint64, words)}
}

// Bits returns the signature width in bits.
func (b *Bloom) Bits() uint32 { return b.bits }

// Add inserts line into the signature.
//
//suv:hotpath
func (b *Bloom) Add(line sim.Line) {
	var idx [NumHashes]uint32
	hashIndices(b.kind, line, b.bits, &idx)
	for _, i := range idx {
		b.word[i/64] |= 1 << (i % 64)
	}
}

// SetSaturated forces (or releases) the saturated overlay; see the field
// comment.
func (b *Bloom) SetSaturated(on bool) { b.saturated = on }

// Test reports whether line may be in the signature (false positives are
// possible, false negatives are not).
//
//suv:hotpath
func (b *Bloom) Test(line sim.Line) bool {
	if b.saturated {
		return true
	}
	for n := 0; n < NumHashes; n++ { // lazy probes: most misses die on hash 0
		i := indexN(b.kind, line, b.bits, n)
		if b.word[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

// TestIdx is Test with the bit indices precomputed by Indices (which
// must have used this signature's kind and size).
//
//suv:hotpath
func (b *Bloom) TestIdx(idx *[NumHashes]uint32) bool {
	if b.saturated {
		return true
	}
	for _, i := range idx {
		if b.word[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

// Kind returns the signature's hash family.
func (b *Bloom) Kind() HashKind { return b.kind }

// Clear flash-clears the signature (transaction begin/commit/abort).
func (b *Bloom) Clear() {
	for i := range b.word {
		b.word[i] = 0
	}
}

// Clone returns an independent copy (LogTM-Nested saves signature
// snapshots per nesting frame so an open-nested commit can restore the
// pre-frame state, releasing the inner transaction's isolation).
func (b *Bloom) Clone() *Bloom {
	out := &Bloom{kind: b.kind, bits: b.bits, word: make([]uint64, len(b.word))}
	copy(out.word, b.word)
	return out
}

// CopyFrom overwrites this signature with other's contents.
func (b *Bloom) CopyFrom(other *Bloom) {
	if b.bits != other.bits {
		panic("signature: CopyFrom of differently sized signatures")
	}
	copy(b.word, other.word)
}

// Or merges other into b (used for the LogTM-SE style summary signature
// on thread suspension, and for merging the write signature into the
// redirect summary signature at commit).
func (b *Bloom) Or(other *Bloom) {
	if b.bits != other.bits {
		panic("signature: Or of differently sized signatures")
	}
	for i := range b.word {
		b.word[i] |= other.word[i]
	}
}

// Intersects reports whether the two signatures share any set bit. This
// is the signature-to-signature test used for lazy commit validation.
func (b *Bloom) Intersects(other *Bloom) bool {
	if b.bits != other.bits {
		panic("signature: Intersects of differently sized signatures")
	}
	// A saturated side behaves as all-ones: it intersects anything that
	// represents at least one address. Two empty, unsaturated signatures
	// never intersect, saturated peer or not.
	if b.saturated || other.saturated {
		if b.saturated && other.saturated {
			return true
		}
		if b.saturated {
			return !other.Empty()
		}
		return !b.Empty()
	}
	for i := range b.word {
		if b.word[i]&other.word[i] != 0 {
			return true
		}
	}
	return false
}

// PopCount returns the number of set bits (diagnostics, fill-rate tests).
func (b *Bloom) PopCount() int {
	n := 0
	for _, w := range b.word {
		n += bits.OnesCount64(w)
	}
	return n
}

// FillRatio returns the fraction of set bits (1 under the saturation
// overlay, which answers as all-ones).
func (b *Bloom) FillRatio() float64 {
	if b.saturated {
		return 1
	}
	return float64(b.PopCount()) / float64(b.bits)
}

// AliasRate returns the signature's predicted false-positive
// probability at its current fill: the chance that all NumHashes probe
// bits of an address never added are set, (fill)^NumHashes under the
// independent-bit approximation. Conflict forensics samples it at each
// observed false positive, putting measured and predicted aliasing side
// by side.
func (b *Bloom) AliasRate() float64 {
	r := b.FillRatio()
	p := 1.0
	for i := 0; i < NumHashes; i++ {
		p *= r
	}
	return p
}

// Empty reports whether no bit is set.
func (b *Bloom) Empty() bool {
	for _, w := range b.word {
		if w != 0 {
			return false
		}
	}
	return true
}

// BitString renders the low n bits MSB-first, for Figure 5 style tests.
func (b *Bloom) BitString(n uint32) string {
	out := make([]byte, n)
	for i := uint32(0); i < n; i++ {
		bit := n - 1 - i
		if b.word[bit/64]&(1<<(bit%64)) != 0 {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
