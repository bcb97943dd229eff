package stats

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"essdsim/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(333 * sim.Microsecond)
	if h.Count() != 1 {
		t.Fatal("count")
	}
	if h.Min() != 333*sim.Microsecond || h.Max() != 333*sim.Microsecond {
		t.Fatal("min/max")
	}
	for _, p := range []float64{0, 50, 99, 99.9, 100} {
		got := h.Percentile(p)
		if got != 333*sim.Microsecond {
			t.Fatalf("p%v = %v", p, got)
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values < subBuckets are stored exactly.
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Record(sim.Duration(i))
	}
	if h.Percentile(50) != 4 && h.Percentile(50) != 5 {
		t.Fatalf("p50 = %v", h.Percentile(50))
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	r := rand.New(rand.NewPCG(42, 42))
	n := 100000
	vals := make([]float64, n)
	for i := range vals {
		// Lognormal-ish latencies from 10µs to ~10ms.
		v := 10e3 * (1 + 100*r.Float64()*r.Float64())
		vals[i] = v
		h.Record(sim.Duration(v))
	}
	sort.Float64s(vals)
	for _, p := range []float64{50, 90, 99, 99.9} {
		want := vals[int(p/100*float64(n))-1]
		got := float64(h.Percentile(p))
		rel := (got - want) / want
		if rel < -0.05 || rel > 0.05 {
			t.Errorf("p%v = %.0f, want %.0f (rel err %.3f)", p, got, want, rel)
		}
	}
	gotMean := float64(h.Mean())
	var sum float64
	for _, v := range vals {
		sum += v
	}
	wantMean := sum / float64(n)
	if gotMean < wantMean*0.999 || gotMean > wantMean*1.001 {
		t.Errorf("mean %.0f, want %.0f", gotMean, wantMean)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Record(sim.Duration(i * 1000))
	}
	for i := 101; i <= 200; i++ {
		b.Record(sim.Duration(i * 1000))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Min() != 1000 || a.Max() != 200000 {
		t.Fatalf("min=%v max=%v", a.Min(), a.Max())
	}
	p50 := float64(a.Percentile(50))
	if p50 < 95000 || p50 > 106000 {
		t.Fatalf("p50 = %v", p50)
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<22; v += 97 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotonic at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
}

// Property: for any value, the bucket midpoint is within ~6% of the value
// (twice the bucket resolution), so percentile error is bounded.
func TestBucketMidClose(t *testing.T) {
	f := func(raw uint32) bool {
		v := int64(raw)
		mid := bucketMid(bucketIndex(v))
		if v < subBuckets {
			return mid == v
		}
		diff := float64(mid-v) / float64(v)
		return diff > -0.07 && diff < 0.07
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotonic in p and bounded by [min, max].
func TestPercentileMonotonic(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(sim.Duration(v))
		}
		last := sim.Duration(-1)
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 99.9, 100} {
			q := h.Percentile(p)
			if q < last || q < h.Min() || q > h.Max() {
				return false
			}
			last = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Record(100 * sim.Microsecond)
	s := h.Summarize()
	if s.Count != 1 {
		t.Fatal("summary count")
	}
	if s.String() == "" {
		t.Fatal("summary string empty")
	}
}

func TestThroughputSeriesBasic(t *testing.T) {
	ts := NewThroughputSeries(sim.Second)
	ts.Add(0, 1000)
	ts.Add(sim.Time(sim.Second/2), 1000)
	ts.Add(sim.Time(3*sim.Second/2), 500)
	if ts.Len() != 2 {
		t.Fatalf("len = %d", ts.Len())
	}
	if ts.Rate(0) != 2000 {
		t.Fatalf("rate0 = %v", ts.Rate(0))
	}
	if ts.Rate(1) != 500 {
		t.Fatalf("rate1 = %v", ts.Rate(1))
	}
	if ts.Total() != 2500 {
		t.Fatalf("total = %d", ts.Total())
	}
	if ts.Rate(99) != 0 || ts.Bytes(-1) != 0 {
		t.Fatal("out-of-range buckets must be zero")
	}
}

func TestThroughputSeriesMeanRate(t *testing.T) {
	ts := NewThroughputSeries(sim.Second)
	for i := 0; i < 10; i++ {
		ts.Add(sim.Time(i)*sim.Time(sim.Second), 100)
	}
	if got := ts.MeanRate(0, 10); got != 100 {
		t.Fatalf("mean rate = %v", got)
	}
	if got := ts.MeanRate(-5, 100); got != 100 {
		t.Fatalf("clamped mean rate = %v", got)
	}
	if got := ts.MeanRate(5, 5); got != 0 {
		t.Fatalf("empty range = %v", got)
	}
}

func TestKneeIndex(t *testing.T) {
	ts := NewThroughputSeries(sim.Second)
	// 20 buckets at 1000 B/s, then 20 at 100 B/s.
	for i := 0; i < 40; i++ {
		rate := int64(1000)
		if i >= 20 {
			rate = 100
		}
		ts.Add(sim.Time(i)*sim.Time(sim.Second), rate)
	}
	knee := ts.KneeIndex(0.5, 3)
	if knee < 17 || knee > 21 {
		t.Fatalf("knee = %d, want ~20", knee)
	}
	// No knee in a flat series.
	flat := NewThroughputSeries(sim.Second)
	for i := 0; i < 40; i++ {
		flat.Add(sim.Time(i)*sim.Time(sim.Second), 1000)
	}
	if k := flat.KneeIndex(0.5, 3); k != -1 {
		t.Fatalf("flat knee = %d, want -1", k)
	}
}
