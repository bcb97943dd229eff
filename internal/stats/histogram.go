// Package stats provides the measurement layer of the simulator: HDR-style
// latency histograms with accurate high percentiles, throughput time series,
// and small online-statistics helpers. All quantities are recorded in
// simulated time.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"essdsim/internal/sim"
)

// Histogram is a log-linear (HDR-style) histogram of durations. Values are
// bucketed with a relative resolution of about 1/subBuckets per power of
// two, which keeps high percentiles (p99.9) accurate to a few percent across
// nanoseconds-to-minutes ranges with a few KiB of memory.
type Histogram struct {
	counts []uint32
	count  uint64
	sum    float64
	min    sim.Duration
	max    sim.Duration
}

const (
	subBucketBits  = 5 // 32 sub-buckets per octave => ~3% resolution
	subBuckets     = 1 << subBucketBits
	histogramSlots = 64 * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint32, histogramSlots),
		min:    math.MaxInt64,
	}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// exp is the position of the highest set bit; shifting by
	// exp-subBucketBits maps the value into [subBuckets, 2*subBuckets).
	exp := 63 - bits.LeadingZeros64(uint64(v))
	shift := uint(exp - subBucketBits)
	m := int(v >> shift) // in [subBuckets, 2*subBuckets)
	idx := (exp-subBucketBits+1)*subBuckets + (m - subBuckets)
	if idx >= histogramSlots {
		idx = histogramSlots - 1
	}
	return idx
}

// bucketMid returns a representative value for bucket i (the midpoint of the
// bucket's value range), bounding relative percentile error to ~1/(2*subBuckets).
func bucketMid(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	oct := i / subBuckets // >= 1
	sub := i % subBuckets
	shift := uint(oct - 1)
	lo := (int64(subBuckets) + int64(sub)) << shift
	width := int64(1) << shift
	return lo + width/2
}

// Record adds one duration observation.
func (h *Histogram) Record(d sim.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += float64(v)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean of recorded observations (0 if empty).
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.count))
}

// Min returns the smallest recorded observation (0 if empty).
func (h *Histogram) Min() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded observation (0 if empty).
func (h *Histogram) Max() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the value at quantile p in [0,100]. The exact recorded
// min/max are returned at the extremes; interior quantiles are accurate to
// the bucket resolution (~3%).
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 100 {
		return h.Max()
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum >= rank {
			v := bucketMid(i)
			if sim.Duration(v) > h.max {
				return h.max
			}
			if sim.Duration(v) < h.min {
				return h.min
			}
			return sim.Duration(v)
		}
	}
	return h.Max()
}

// percentileAcross returns the value at quantile p over the union of the
// given histograms (nil entries are skipped), exactly as if they had been
// merged into one histogram first — same bucket resolution, same min/max
// clamping — but without allocating the merged copy.
func percentileAcross(hists []*Histogram, p float64) sim.Duration {
	var total uint64
	min := sim.Duration(math.MaxInt64)
	var max sim.Duration
	for _, h := range hists {
		if h == nil || h.count == 0 {
			continue
		}
		total += h.count
		if h.min < min {
			min = h.min
		}
		if h.max > max {
			max = h.max
		}
	}
	if total == 0 {
		return 0
	}
	if p <= 0 {
		return min
	}
	if p >= 100 {
		return max
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histogramSlots; i++ {
		for _, h := range hists {
			if h != nil {
				cum += uint64(h.counts[i])
			}
		}
		if cum >= rank {
			v := sim.Duration(bucketMid(i))
			if v > max {
				return max
			}
			if v < min {
				return min
			}
			return v
		}
	}
	return max
}

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Summary is a compact snapshot of a histogram, convenient for tables.
type Summary struct {
	Count uint64
	Mean  sim.Duration
	P50   sim.Duration
	P99   sim.Duration
	P999  sim.Duration
	Max   sim.Duration
}

// Summarize returns the standard snapshot of the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.Max(),
	}
}

// String formats the summary in a single fio-like line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d avg=%v p50=%v p99=%v p99.9=%v max=%v",
		s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
}
