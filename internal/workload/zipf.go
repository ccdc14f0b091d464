package workload

import (
	"math"
	"sort"

	"suvtm/internal/sim"
)

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s. High-contention STAMP-analogue generators use it to skew
// accesses toward hot lines (shared queue heads, popular hash buckets,
// overlapping mesh cavities).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n items with exponent s. s == 0 yields a
// uniform distribution.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf over empty domain")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one index using rng.
func (z *Zipf) Sample(rng *sim.RNG) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
