package workload

import (
	"math"

	"essdsim/internal/sim"
)

// Zipf draws ranks from a zipfian distribution over [0, N), mapping rank
// to position with a multiplicative scramble so hot items scatter across
// the address space. Skewed access is the standard model for database and
// KV workloads and the natural companion to Implication #5's cache and
// dedup questions.
type Zipf struct {
	n     int64
	theta float64
	// Precomputed constants of the standard YCSB/Gray zipfian generator.
	// half is 1+0.5^theta, the rank-1 threshold — hoisted out of nextRank
	// so a draw costs a single math.Pow instead of two.
	alpha, zetan, eta, half float64
}

// NewZipf builds a generator over n items with skew theta in [0, 1).
// theta=0 degenerates to uniform; theta≈0.99 is YCSB's default "hot" skew.
func NewZipf(n int64, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	if theta < 0 {
		theta = 0
	}
	if theta >= 1 {
		theta = 0.999
	}
	z := &Zipf{n: n, theta: theta}
	if theta == 0 {
		// zeta(n, 0) adds up to exactly n for any n below 2^53, one term
		// at a time; uniform draws never read it anyway.
		z.zetan = float64(n)
	} else {
		z.zetan = zeta(n, theta)
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func zeta(n int64, theta float64) float64 {
	// Direct summation is exact and fast enough for simulator-scale n up
	// to ~10M when constructed once per run.
	sum := 0.0
	limit := n
	const cap = 1 << 22
	if limit > cap {
		// Approximate the tail with the integral; the head dominates.
		for i := int64(1); i <= cap; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(cap), 1-theta)) / (1 - theta)
		return sum
	}
	for i := int64(1); i <= limit; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws an item in [0, N), scrambled so adjacent ranks are not
// adjacent positions.
func (z *Zipf) Next(rng *sim.RNG) int64 {
	rank := z.nextRank(rng)
	h := uint64(rank) * 0x9e3779b97f4a7c15
	h ^= h >> 31
	return int64(h % uint64(z.n))
}

// nextRank draws a zipfian rank in [0, N), rank 0 hottest.
func (z *Zipf) nextRank(rng *sim.RNG) int64 {
	if z.theta == 0 {
		return rng.Int64N(z.n)
	}
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	r := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
