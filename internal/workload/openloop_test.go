package workload

import (
	"math"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

func TestOpenSpecValidate(t *testing.T) {
	d := newFake(100)
	bad := []OpenSpec{
		{BlockSize: 0, RatePerSec: 10, Count: 1},
		{BlockSize: 1000, RatePerSec: 10, Count: 1},
		{BlockSize: 4096, RatePerSec: 0, Count: 1},
		{BlockSize: 4096, RatePerSec: 10, Count: 0},
		// A zero-slot device would reach the offset draw and panic there.
		{BlockSize: 2 << 30, RatePerSec: 10, Count: 1}, // block > capacity
		{Pattern: Mixed, WriteRatio: 1.5, BlockSize: 4096, RatePerSec: 10, Count: 1},
		{Pattern: Mixed, WriteRatio: -0.1, BlockSize: 4096, RatePerSec: 10, Count: 1},
		// NaN passes every <= 0 test; +Inf would issue every arrival at t = 0.
		{BlockSize: 4096, RatePerSec: math.NaN(), Count: 1},
		{BlockSize: 4096, RatePerSec: math.Inf(1), Count: 1},
		{BlockSize: 4096, RatePerSec: math.Inf(-1), Count: 1},
	}
	for i, s := range bad {
		if err := s.Validate(d); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	ok := OpenSpec{Pattern: Mixed, WriteRatio: 0.5, BlockSize: 4096, RatePerSec: 10, Count: 1}
	if err := ok.Validate(d); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestOpenLoopTimelines checks the completion timelines the result carries
// for cliff analysis: bucketed bytes and mean latency.
func TestOpenLoopTimelines(t *testing.T) {
	d := newFake(100 * sim.Microsecond)
	res := RunOpen(d, OpenSpec{
		Pattern: RandRead, BlockSize: 4096,
		RatePerSec: 1000, Arrival: Uniform, Count: 100,
		SampleInterval: 10 * sim.Millisecond, Seed: 1,
	})
	if res.Series.Total() != 100*4096 {
		t.Fatalf("series total = %d", res.Series.Total())
	}
	// 100 req at 1 kHz over 10 ms buckets: 10 completions per bucket.
	if got := res.LatSeries.Count(0); got != 10 {
		t.Fatalf("bucket 0 completions = %d, want 10", got)
	}
	if got := res.LatSeries.MeanRange(0, res.LatSeries.Len()); got != 100*sim.Microsecond {
		t.Fatalf("mean latency over timeline = %v", got)
	}
	if got := res.Throughput(); got <= 0 {
		t.Fatalf("throughput = %v", got)
	}
}

func TestOpenLoopUniformPacing(t *testing.T) {
	d := newFake(100 * sim.Microsecond)
	res := RunOpen(d, OpenSpec{
		Pattern: RandRead, BlockSize: 4096,
		RatePerSec: 1000, Arrival: Uniform, Count: 100, Seed: 1,
	})
	if res.Ops != 100 {
		t.Fatalf("ops = %d", res.Ops)
	}
	// 100 requests at 1 kHz: last issues at 99 ms, completes at 99.1 ms.
	want := sim.Duration(99*sim.Millisecond + 100*sim.Microsecond)
	if res.Elapsed != want {
		t.Fatalf("elapsed = %v, want %v", res.Elapsed, want)
	}
	// Device (100µs) keeps up with 1ms gaps: no queueing.
	if res.MaxOutstanding != 1 {
		t.Fatalf("max outstanding = %d, want 1", res.MaxOutstanding)
	}
	if res.Lat.Max() != 100*sim.Microsecond {
		t.Fatalf("latency = %v", res.Lat.Max())
	}
}

func TestOpenLoopQueueingWhenOverloaded(t *testing.T) {
	// 1 kHz arrivals on a serial 5 ms device: queue builds, latency
	// includes wait.
	d := &serialFake{fakeDevice: newFake(5 * sim.Millisecond)}
	res := RunOpen(d, OpenSpec{
		Pattern: RandWrite, BlockSize: 4096,
		RatePerSec: 1000, Arrival: Uniform, Count: 50, Seed: 1,
	})
	if res.MaxOutstanding < 10 {
		t.Fatalf("max outstanding = %d, want queue buildup", res.MaxOutstanding)
	}
	if res.Lat.Max() <= 5*sim.Millisecond {
		t.Fatalf("max latency %v does not include queueing", res.Lat.Max())
	}
}

// serialFake serves one request at a time — queueing is visible in
// completion latencies.
type serialFake struct {
	*fakeDevice
	busyUntil sim.Time
}

func (s *serialFake) Submit(r *blockdev.Request) {
	blockdev.Validate(s, r)
	r.Issued = s.eng.Now()
	s.offsets = append(s.offsets, r.Offset)
	start := s.busyUntil
	if now := s.eng.Now(); start < now {
		start = now
	}
	s.busyUntil = start.Add(s.lat)
	s.eng.At(s.busyUntil, func() {
		if r.OnComplete != nil {
			r.OnComplete(r, s.eng.Now())
		}
	})
}

func TestOpenLoopBurstyArrivals(t *testing.T) {
	d := &serialFake{fakeDevice: newFake(1 * sim.Millisecond)}
	res := RunOpen(d, OpenSpec{
		Pattern: RandRead, BlockSize: 4096,
		RatePerSec: 100, Arrival: Bursty, Count: 200, Seed: 1,
	})
	// Uniform pacing of the same load on the same device.
	d2 := &serialFake{fakeDevice: newFake(1 * sim.Millisecond)}
	res2 := RunOpen(d2, OpenSpec{
		Pattern: RandRead, BlockSize: 4096,
		RatePerSec: 100, Arrival: Uniform, Count: 200, Seed: 1,
	})
	// Implication #4 in numbers: bursty p99 >> uniform p99 at equal
	// offered load (100 req/s on a 1000 req/s-capable device).
	if res.Lat.Percentile(99) < 4*res2.Lat.Percentile(99) {
		t.Fatalf("bursty p99 %v not much worse than uniform %v",
			res.Lat.Percentile(99), res2.Lat.Percentile(99))
	}
	if res2.MaxOutstanding > 2 {
		t.Fatalf("uniform max outstanding = %d", res2.MaxOutstanding)
	}
}

func TestOpenLoopPoissonJitters(t *testing.T) {
	d := newFake(10 * sim.Microsecond)
	res := RunOpen(d, OpenSpec{
		Pattern: RandRead, BlockSize: 4096,
		RatePerSec: 1000, Arrival: Poisson, Count: 500, Seed: 3,
	})
	if res.Ops != 500 {
		t.Fatalf("ops = %d", res.Ops)
	}
	// Mean rate should be near nominal: elapsed ≈ 0.5 s.
	secs := res.Elapsed.Seconds()
	if secs < 0.3 || secs > 0.8 {
		t.Fatalf("poisson elapsed = %.3fs, want ≈0.5s", secs)
	}
}

func TestZipfBounds(t *testing.T) {
	rng := sim.NewRNG(1, 1)
	z := NewZipf(1000, 0.99)
	for i := 0; i < 10000; i++ {
		v := z.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	rng := sim.NewRNG(2, 2)
	z := NewZipf(10000, 0.99)
	ranks := map[int64]int{}
	for i := 0; i < 50000; i++ {
		ranks[z.nextRank(rng)]++
	}
	// Rank 0 must dominate rank 100.
	if ranks[0] < 5*ranks[100] || ranks[0] == 0 {
		t.Fatalf("rank0=%d rank100=%d: skew wrong", ranks[0], ranks[100])
	}
	// A draw is rank 0 exactly when u·ζ(n) < 1, so at the kv suite's key
	// space and hot skew rank 0's share must match 1/ζ(n) within 4σ.
	const draws = 200000
	z = NewZipf(1<<18, 0.99)
	hits := 0
	for i := 0; i < draws; i++ {
		if z.nextRank(rng) == 0 {
			hits++
		}
	}
	p := 1 / zeta(1<<18, 0.99)
	sigma := math.Sqrt(p * (1 - p) / draws)
	if share := float64(hits) / draws; math.Abs(share-p) > 4*sigma {
		t.Fatalf("rank 0 share %.5f, want 1/ζ(n) = %.5f ± %.5f", share, p, 4*sigma)
	}
}

func TestZipfUniformTheta(t *testing.T) {
	rng := sim.NewRNG(3, 3)
	z := NewZipf(100, 0)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.nextRank(rng)]++
	}
	for r, c := range counts {
		if c < 100 || c > 320 {
			t.Fatalf("theta=0 rank %d count %d, want ≈200", r, c)
		}
	}
}

func TestZipfDegenerateN(t *testing.T) {
	rng := sim.NewRNG(4, 4)
	z := NewZipf(0, 2.0) // clamped to n=1, theta<1
	if z.Next(rng) != 0 {
		t.Fatal("n=1 zipf must return 0")
	}
	// No clamp gives NaN a meaning: unchecked, every draw would be rank 0.
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf accepted a NaN theta")
		}
	}()
	NewZipf(1024, math.NaN())
}

func TestArrivalString(t *testing.T) {
	if Uniform.String() != "uniform" || Poisson.String() != "poisson" || Bursty.String() != "bursty" {
		t.Fatal("arrival names")
	}
}

// TestZipfUniformThetaZetaExact checks the θ = 0 shortcut: zetan is n,
// exactly the sum of n ones the general path computes.
func TestZipfUniformThetaZetaExact(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 1000, 1 << 18, 1<<22 + 5} {
		if got, want := NewZipf(n, 0).zetan, zeta(n, 0); got != want {
			t.Errorf("n=%d: zetan %v, summed %v", n, got, want)
		}
	}
}
