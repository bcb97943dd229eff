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
// n below 1 is raised to 1 and theta outside [0, 1) is clamped into it; a
// NaN theta panics, since no clamp gives it a meaning.
func NewZipf(n int64, theta float64) *Zipf {
	if math.IsNaN(theta) {
		panic("workload: zipf theta is NaN")
	}
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
		// zeta(n, 0) is exactly n; uniform draws never read it anyway.
		z.zetan = float64(n)
	} else {
		z.zetan = zeta(n, theta)
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

// zetaHead is how many leading terms zeta sums directly.
const zetaHead = 63

// zeta returns the generalized harmonic number ζ(n, θ) = Σ_{i=1..n} i^−θ
// in O(1). It sums the first zetaHead terms directly and the tail
// i = zetaHead+1..n by Euler–Maclaurin summation of f(x) = x^−θ:
//
//	Σ_{i=a..n} f(i) = ∫_a^n f + (f(a)+f(n))/2
//	                + Σ_{k=1..3} B_2k/(2k)! · (f^(2k−1)(n) − f^(2k−1)(a)) + R,
//
// with a = zetaHead+1 = 64. The even derivatives of f are all positive, so
// the remainder R is no larger than the first omitted term,
// |B_8/8!| · |f^(7)(a)| = θ(θ+1)…(θ+6) · 64^(−θ−7) / 1209600, which is
// below 2.5e-17 for every θ in [0, 1): far below the rounding of the head
// sum. Against a compensated direct sum the result is within 1e-15
// relative for n up to 2^22 and θ up to 0.999999. For n ≤ zetaHead it is
// the direct sum alone.
func zeta(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= min(n, zetaHead); i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n <= zetaHead {
		return sum
	}
	a, b := float64(zetaHead+1), float64(n)
	// ∫_a^b x^−θ dx = (b^s − a^s)/s with s = 1−θ. As s → 0 the difference
	// cancels, so below s = 0.5 it is taken as a^s·expm1(s·ln(b/a))/s.
	// At θ = 0 the first form is b − a exactly, so zeta(n, 0) = n.
	s := 1 - theta
	var integral float64
	if s >= 0.5 {
		integral = (math.Pow(b, s) - math.Pow(a, s)) / s
	} else {
		integral = math.Pow(a, s) * math.Expm1(s*math.Log(b/a)) / s
	}
	// f^(j)(x) = c_j · x^(−θ−j) with c_j = (−θ)(−θ−1)…(−θ−j+1), so the
	// correction terms need c_1, c_3 and c_5.
	c1 := -theta
	c3 := c1 * (-theta - 1) * (-theta - 2)
	c5 := c3 * (-theta - 3) * (-theta - 4)
	d := func(c, j float64) float64 { // f^(j)(b) − f^(j)(a)
		return c * (math.Pow(b, -theta-j) - math.Pow(a, -theta-j))
	}
	tail := integral + (math.Pow(a, -theta)+math.Pow(b, -theta))/2 +
		d(c1, 1)/12 - d(c3, 3)/720 + d(c5, 5)/30240
	return sum + tail
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
