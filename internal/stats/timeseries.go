package stats

import (
	"essdsim/internal/sim"
)

// ThroughputSeries accumulates completed bytes into fixed-width time buckets
// and reports a GB/s (or arbitrary-unit) timeline — the measurement behind
// the paper's Figure 3 runtime-throughput plot.
type ThroughputSeries struct {
	interval sim.Duration
	buckets  []int64
	total    int64
}

// NewThroughputSeries returns a series with the given bucket width.
func NewThroughputSeries(interval sim.Duration) *ThroughputSeries {
	if interval <= 0 {
		interval = sim.Second
	}
	return &ThroughputSeries{interval: interval}
}

// Interval returns the bucket width.
func (t *ThroughputSeries) Interval() sim.Duration { return t.interval }

// Add records n bytes completed at time at.
func (t *ThroughputSeries) Add(at sim.Time, n int64) {
	idx := int(int64(at) / int64(t.interval))
	for len(t.buckets) <= idx {
		t.buckets = append(t.buckets, 0)
	}
	t.buckets[idx] += n
	t.total += n
}

// Total returns the total bytes recorded.
func (t *ThroughputSeries) Total() int64 { return t.total }

// Len returns the number of buckets.
func (t *ThroughputSeries) Len() int { return len(t.buckets) }

// Bytes returns the bytes recorded in bucket i.
func (t *ThroughputSeries) Bytes(i int) int64 {
	if i < 0 || i >= len(t.buckets) {
		return 0
	}
	return t.buckets[i]
}

// Rate returns the throughput of bucket i in bytes per second.
func (t *ThroughputSeries) Rate(i int) float64 {
	return float64(t.Bytes(i)) / t.interval.Seconds()
}

// Rates returns the whole timeline in bytes per second.
func (t *ThroughputSeries) Rates() []float64 {
	out := make([]float64, len(t.buckets))
	for i := range t.buckets {
		out[i] = t.Rate(i)
	}
	return out
}

// MeanRate returns the average throughput over buckets [from, to).
func (t *ThroughputSeries) MeanRate(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(t.buckets) {
		to = len(t.buckets)
	}
	if to <= from {
		return 0
	}
	var sum int64
	for i := from; i < to; i++ {
		sum += t.buckets[i]
	}
	return float64(sum) / (float64(to-from) * t.interval.Seconds())
}

// KneeIndex locates the first sustained throughput drop: the first bucket
// whose trailing window mean falls below frac times the peak of the
// preceding prefix. It returns -1 if no such drop exists. window smooths
// out single-bucket noise.
func (t *ThroughputSeries) KneeIndex(frac float64, window int) int {
	if window < 1 {
		window = 1
	}
	if len(t.buckets) < 2*window {
		return -1
	}
	// Peak of the smoothed series so far.
	peak := 0.0
	for i := 0; i+window <= len(t.buckets); i++ {
		m := t.MeanRate(i, i+window)
		if m > peak {
			peak = m
			continue
		}
		if peak > 0 && m < frac*peak {
			return i
		}
	}
	return -1
}

// LatencySeries accumulates completion latencies into fixed-width time
// buckets keyed by completion time, reporting a mean-latency timeline. It is
// the measurement behind pre/post-cliff latency comparisons: split the
// buckets at an event time (credit exhaustion, throttle engagement) and
// compare the two halves.
type LatencySeries struct {
	interval  sim.Duration
	sums      []sim.Duration
	counts    []uint64
	hists     []*Histogram // per-bucket distributions; nil unless trackHist
	trackHist bool
}

// NewLatencySeries returns a series with the given bucket width.
func NewLatencySeries(interval sim.Duration) *LatencySeries {
	if interval <= 0 {
		interval = sim.Second
	}
	return &LatencySeries{interval: interval}
}

// NewLatencySeriesHist returns a series that additionally keeps a full
// latency histogram per bucket, enabling PercentileRange over arbitrary
// windows. Each non-empty bucket costs a few KiB, so use it for bounded
// runs (SLO probes) rather than unbounded timelines.
func NewLatencySeriesHist(interval sim.Duration) *LatencySeries {
	l := NewLatencySeries(interval)
	l.trackHist = true
	return l
}

// Interval returns the bucket width.
func (l *LatencySeries) Interval() sim.Duration { return l.interval }

// Len returns the number of buckets.
func (l *LatencySeries) Len() int { return len(l.sums) }

// Add records one completion with the given latency at time at.
func (l *LatencySeries) Add(at sim.Time, lat sim.Duration) {
	idx := int(int64(at) / int64(l.interval))
	for len(l.sums) <= idx {
		l.sums = append(l.sums, 0)
		l.counts = append(l.counts, 0)
		if l.trackHist {
			l.hists = append(l.hists, nil)
		}
	}
	l.sums[idx] += lat
	l.counts[idx]++
	if l.trackHist {
		if l.hists[idx] == nil {
			l.hists[idx] = NewHistogram()
		}
		l.hists[idx].Record(lat)
	}
}

// Count returns the completions recorded in bucket i.
func (l *LatencySeries) Count(i int) uint64 {
	if i < 0 || i >= len(l.counts) {
		return 0
	}
	return l.counts[i]
}

// Mean returns the mean latency of bucket i (0 when empty).
func (l *LatencySeries) Mean(i int) sim.Duration {
	if i < 0 || i >= len(l.sums) || l.counts[i] == 0 {
		return 0
	}
	return l.sums[i] / sim.Duration(l.counts[i])
}

// MeanRange returns the completion-weighted mean latency over buckets
// [from, to), or 0 when the range holds no completions.
func (l *LatencySeries) MeanRange(from, to int) sim.Duration {
	if from < 0 {
		from = 0
	}
	if to > len(l.sums) {
		to = len(l.sums)
	}
	var sum sim.Duration
	var n uint64
	for i := from; i < to; i++ {
		sum += l.sums[i]
		n += l.counts[i]
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Duration(n)
}

// PercentileRange returns the latency at quantile p over buckets [from,
// to). It requires a series built with NewLatencySeriesHist and returns 0
// when histograms are not tracked or the window holds no completions.
// The quantile is computed by a rank scan across the per-bucket histograms
// in place — no merged histogram is materialized, so sweeps that query many
// windows (SLO probes, windowed-percentile reports) allocate nothing here.
func (l *LatencySeries) PercentileRange(from, to int, p float64) sim.Duration {
	if !l.trackHist {
		return 0
	}
	if from < 0 {
		from = 0
	}
	if to > len(l.hists) {
		to = len(l.hists)
	}
	return percentileAcross(l.hists[from:to], p)
}
