package workload

import (
	"math"
	"testing"
)

// neumaierZeta is the reference ζ(n, θ): the direct sum of i^−θ with
// Neumaier's compensation, so its own rounding error stays near one ulp
// however many terms it adds.
func neumaierZeta(n int64, theta float64) float64 {
	var sum, comp float64
	for i := int64(1); i <= n; i++ {
		x := math.Pow(float64(i), -theta)
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// TestZipfZetaMatchesCompensatedSum checks zeta's Euler–Maclaurin tail
// against the compensated direct sum on both sides of the 63-term head,
// at the kv suite's key spaces, and at skews approaching both ends of
// [0, 1), where the closed-form integral switches formulas at θ = 0.5.
func TestZipfZetaMatchesCompensatedSum(t *testing.T) {
	ns := []int64{1, 2, 3, 63, 64, 65, 100, 255, 256, 1000, 4096, 1 << 16, 1 << 18, 1 << 20, 1<<22 + 5}
	thetas := []float64{0, 0.01, 0.3, 0.49, 0.5, 0.51, 0.8, 0.9, 0.99, 0.999, 0.9999, 0.999999}
	const bound = 2e-15
	for _, n := range ns {
		if n > 1<<20 && testing.Short() {
			continue
		}
		for _, th := range thetas {
			got, want := zeta(n, th), neumaierZeta(n, th)
			if rel := math.Abs(got-want) / want; !(rel <= bound) {
				t.Errorf("zeta(%d, %v) = %.17g, compensated sum %.17g: relative error %.2g > %.0g",
					n, th, got, want, rel, bound)
			}
		}
	}
}

var zipfSink *Zipf

// BenchmarkNewZipf times one generator build at the kv suite's key space
// and hot skew, which is dominated by computing ζ(n, θ).
func BenchmarkNewZipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		zipfSink = NewZipf(1<<18, 0.99)
	}
}
