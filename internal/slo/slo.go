// Package slo answers the capacity-planning question behind the paper's
// contract cliff: what is the highest offered rate a device sustains while
// still meeting a tail-latency SLO? A burstable tier (Observation #4) has
// two distinct answers — one while burst credits last, and a much lower
// one after they drain — so a Search reports both: the pre-exhaustion
// SLO-max rate and the post-cliff (credit-floor) SLO-max rate.
//
// # Search model
//
// Each probe runs one open-loop expgrid cell (workload.RunOpen) at a
// candidate rate for a fixed virtual-time horizon, with per-window latency
// histograms (stats.LatencySeries percentile windows). The probe's
// completion timeline is split at the device's credit-exhaustion time
// (qos.CreditBucket.ExhaustedAt, surfaced through scenario.InspectCredits):
// the window before the split yields the pre-exhaustion p99/p99.9, the
// window after it the post-cliff tail. A probe whose credits never drain
// within the horizon has no post window; it counts as sustaining, which
// makes both pass/fail predicates monotone in rate, and the engine binary
// searches each to its highest passing rate within Tolerance.
//
// Probes repeat coordinates across the two searches and across re-runs, so
// attach an expgrid.Cache: endpoint probes are shared between the pre and
// post searches, and a cache-warm repeat of a whole search executes zero
// new cells while reproducing identical measurements and CSV output
// (Probe.Cached and Report.CellsRun record what was served from cache).
//
// # Model assumptions
//
// The post-cliff answer is horizon-bounded: a rate whose drain time
// exceeds the probe horizon passes even though an infinite workload would
// eventually exhaust it. Against qos.CreditBucket math, the post-cliff
// SLO-max offered rate therefore lands between the analytic sustainable
// rate baseline*burst/(burst-baseline) and the rate whose bank-drain time
// equals the horizon — both computable from CreditInfo, and asserted in
// this package's tests.
package slo

import (
	"context"
	"fmt"
	"io"
	"math"

	"essdsim/internal/expgrid"
	"essdsim/internal/results"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// Target is the tail-latency SLO a probe must meet. Zero fields are
// unconstrained; at least one must be set.
type Target struct {
	P99  sim.Duration
	P999 sim.Duration
}

// met reports whether measured tails satisfy the target.
func (t Target) met(p99, p999 sim.Duration) bool {
	if t.P99 > 0 && p99 > t.P99 {
		return false
	}
	if t.P999 > 0 && p999 > t.P999 {
		return false
	}
	return true
}

func (t Target) String() string {
	switch {
	case t.P99 > 0 && t.P999 > 0:
		return fmt.Sprintf("p99<=%v p99.9<=%v", t.P99, t.P999)
	case t.P999 > 0:
		return fmt.Sprintf("p99.9<=%v", t.P999)
	default:
		return fmt.Sprintf("p99<=%v", t.P99)
	}
}

// Search declares one SLO-max search: a device profile × workload spec, a
// rate range to bisect, and the latency target. Zero-valued fields take
// defaults.
type Search struct {
	// Device is the device axis value probes run on (required).
	Device expgrid.NamedFactory

	Pattern   workload.Pattern // default RandWrite
	BlockSize int64            // bytes per request (default 256 KiB)
	// WriteRatioPct is the write percentage of Mixed-pattern probes; other
	// patterns ignore it. Zero is honored (a pure-read mixed workload).
	WriteRatioPct int
	Arrival       workload.Arrival // default Uniform

	// MinRate and MaxRate bound the searched offered rate in requests/s
	// (defaults 100 and 4000). Tolerance is the convergence width
	// (default (MaxRate-MinRate)/64); the search stops when the passing
	// bracket is narrower.
	MinRate, MaxRate float64
	Tolerance        float64

	// Target is the tail-latency SLO (required: at least one field).
	Target Target

	// Horizon is each probe's offered timeline span in virtual time
	// (default 6 s): a probe at rate r issues about r×Horizon requests,
	// clamped to [minOps, MaxOps] (MaxOps default 60000).
	Horizon sim.Duration
	MaxOps  uint64

	// Cache, when non-nil, memoizes probe cells; repeated coordinates
	// (endpoints shared by the pre/post searches, warm re-runs) skip the
	// simulation.
	Cache *expgrid.Cache

	Precondition expgrid.Precond // default PrecondFull
	Seed         uint64

	// Variant feeds each probe cell's cache variant (expgrid.Sweep.Variant):
	// device configurations that must not share cache entries but must keep
	// identical probe seeds — backend QoS isolation, chiefly — set it.
	Variant string
}

// minOps is the fewest requests a probe issues, and window the width of
// the windows its latency percentiles are taken over.
const (
	minOps = 1000
	window = 100 * sim.Millisecond
)

func (s Search) withDefaults() Search {
	if s.BlockSize <= 0 {
		s.BlockSize = 256 << 10
	}
	if s.MinRate <= 0 {
		s.MinRate = 100
	}
	if s.MaxRate <= 0 {
		s.MaxRate = 4000
	}
	if s.Tolerance == 0 {
		s.Tolerance = (s.MaxRate - s.MinRate) / 64
	}
	if s.Horizon <= 0 {
		s.Horizon = 6 * sim.Second
	}
	if s.MaxOps == 0 {
		s.MaxOps = 60000
	}
	return s
}

// Validate reports a descriptive error for nonsensical searches.
func (s Search) Validate() error {
	switch {
	case s.Device.New == nil:
		return fmt.Errorf("slo: search has no device factory")
	case s.Target.P99 <= 0 && s.Target.P999 <= 0:
		return fmt.Errorf("slo: search has no latency target")
	case s.MinRate >= s.MaxRate:
		return fmt.Errorf("slo: rate range [%v, %v] is empty", s.MinRate, s.MaxRate)
	case !(s.Tolerance >= 0) || math.IsInf(s.Tolerance, 1):
		// 0 means the default; NaN fails every comparison.
		return fmt.Errorf("slo: tolerance %v must be finite and non-negative", s.Tolerance)
	case s.Pattern == workload.Mixed && (s.WriteRatioPct < 0 || s.WriteRatioPct > 100):
		return fmt.Errorf("slo: write ratio %d%% out of [0, 100]", s.WriteRatioPct)
	}
	return nil
}

// Probe is one evaluated rate.
type Probe struct {
	RatePerSec float64
	OfferedBps float64
	Ops        uint64

	Exhausted   bool
	ExhaustedAt sim.Duration // -1 when credits never drained

	// Tail latency of the pre-exhaustion window (the whole run when the
	// probe never exhausted) and of the post-cliff window (zero when
	// there is none).
	PreP99, PreP999   sim.Duration
	PostP99, PostP999 sim.Duration

	Elapsed        sim.Duration
	MaxOutstanding int

	PrePass  bool // pre-exhaustion window meets the target
	PostPass bool // post-cliff window meets it (vacuously when no cliff)
	Cached   bool // served from the sweep cache, not simulated
}

// Report is a completed search.
type Report struct {
	Device    string
	Pattern   workload.Pattern
	BlockSize int64
	Arrival   workload.Arrival
	Target    Target

	MinRate, MaxRate, Tolerance float64
	Horizon                     sim.Duration

	// Credit model of the probed device (the -1 sentinels when it is not
	// a burstable tier).
	Burstable                       bool
	BaselineBps, BurstBps, FloorBps float64
	InitialCredits                  float64
	PreMaxRate, PostMaxRate         float64 // highest passing rates (0: even MinRate fails)
	PreRangeCapped, PostRangeCapped bool    // MaxRate itself passed: the true max lies above the range
	PreBelowRange, PostBelowRange   bool    // MinRate itself failed: the true max lies below the range

	Probes     []Probe // distinct rates, in first-evaluation order
	Bisections int     // midpoint evaluations across both searches
	CellsRun   int     // probes actually simulated (cache misses)
}

// MaxBisections returns the convergence bound ⌈log2(range/tolerance)⌉ for
// one binary search over the report's rate range.
func (r *Report) MaxBisections() int {
	return maxBisections(r.MinRate, r.MaxRate, r.Tolerance)
}

func maxBisections(lo, hi, tol float64) int {
	if tol <= 0 || hi <= lo {
		return 0
	}
	return int(math.Ceil(math.Log2((hi - lo) / tol)))
}

// Run executes the search: evaluate the range endpoints, then bisect the
// pre-exhaustion and post-cliff predicates to their highest passing rates.
// Probes are shared between the two predicates (one cell measures both
// windows) and memoized through s.Cache when set, so a search performs at
// most 2 + 2×⌈log2(range/Tolerance)⌉ distinct probes and a cache-warm
// repeat simulates none at all.
func Run(ctx context.Context, s Search) (*Report, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{
		Pattern:   s.Pattern,
		BlockSize: s.BlockSize,
		Arrival:   s.Arrival,
		Target:    s.Target,
		MinRate:   s.MinRate,
		MaxRate:   s.MaxRate,
		Tolerance: s.Tolerance,
		Horizon:   s.Horizon,
	}

	probes := make(map[float64]*Probe)
	eval := func(rate float64) (*Probe, error) {
		if p, ok := probes[rate]; ok {
			return p, nil
		}
		p, dev, info, err := s.probe(ctx, rate)
		if err != nil {
			return nil, err
		}
		if rep.Device == "" {
			rep.Device = dev
			rep.Burstable = info.Burstable
			rep.BaselineBps = info.Baseline
			rep.BurstBps = info.Burst
			rep.FloorBps = info.Floor
		}
		probes[rate] = p
		rep.Probes = append(rep.Probes, *p)
		if !p.Cached {
			rep.CellsRun++
		}
		return p, nil
	}

	// bisect finds the highest rate in [MinRate, MaxRate] passing pred,
	// assuming pred is monotonically non-increasing in rate. Returns
	// (rate, capped, below): capped when MaxRate itself passes, below
	// when even MinRate fails (rate is then 0).
	bisect := func(pred func(*Probe) bool) (float64, bool, bool, error) {
		top, err := eval(s.MaxRate)
		if err != nil {
			return 0, false, false, err
		}
		if pred(top) {
			return s.MaxRate, true, false, nil
		}
		bottom, err := eval(s.MinRate)
		if err != nil {
			return 0, false, false, err
		}
		if !pred(bottom) {
			return 0, false, true, nil
		}
		lo, hi := s.MinRate, s.MaxRate
		for hi-lo > s.Tolerance {
			mid := (lo + hi) / 2
			p, err := eval(mid)
			if err != nil {
				return 0, false, false, err
			}
			rep.Bisections++
			if pred(p) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo, false, false, nil
	}

	var err error
	if rep.PreMaxRate, rep.PreRangeCapped, rep.PreBelowRange, err = bisect(func(p *Probe) bool { return p.PrePass }); err != nil {
		return nil, err
	}
	if rep.PostMaxRate, rep.PostRangeCapped, rep.PostBelowRange, err = bisect(func(p *Probe) bool { return p.PostPass }); err != nil {
		return nil, err
	}
	// Capture the fresh-device credit bank for analytic cross-checks.
	if rep.Burstable {
		if d, ok := s.Device.New(s.Seed).(interface{ Credits() float64 }); ok {
			rep.InitialCredits = d.Credits()
		}
	}
	return rep, nil
}

// probe runs one open-loop cell at the rate and folds it into a Probe.
func (s Search) probe(ctx context.Context, rate float64) (*Probe, string, scenario.CreditInfo, error) {
	ops := uint64(rate * s.Horizon.Seconds())
	if ops < minOps {
		ops = minOps
	}
	if ops > s.MaxOps {
		ops = s.MaxOps
	}
	sw := expgrid.Sweep{
		Kind:                  expgrid.Open,
		Devices:               []expgrid.NamedFactory{s.Device},
		Patterns:              []workload.Pattern{s.Pattern},
		BlockSizes:            []int64{s.BlockSize},
		Arrivals:              []workload.Arrival{s.Arrival},
		RatesPerSec:           []float64{rate},
		OpenOps:               ops,
		OpenSampleInterval:    window,
		OpenWindowPercentiles: true,
		Precondition:          s.Precondition,
		Inspect:               scenario.InspectCredits,
		Cache:                 s.Cache,
		DecodeInfo:            scenario.DecodeCreditInfo,
		Seed:                  s.Seed,
		Label:                 "slo", // seed decorrelation label
		Variant:               s.Variant,
	}
	if s.Pattern == workload.Mixed {
		sw.WriteRatiosPct = []int{s.WriteRatioPct}
	}
	res, err := expgrid.Runner{Workers: 1}.Run(ctx, sw)
	if err != nil {
		return nil, "", scenario.CreditInfo{}, err
	}
	r := res[0]
	open := r.Open
	info := r.Info.(scenario.CreditInfo)
	p := &Probe{
		RatePerSec:     rate,
		OfferedBps:     rate * float64(s.BlockSize),
		Ops:            open.Ops,
		ExhaustedAt:    -1,
		Elapsed:        open.Elapsed,
		MaxOutstanding: open.MaxOutstanding,
		Cached:         r.Cached,
	}
	n := open.LatSeries.Len()
	split := n
	if info.ExhaustedAt >= 0 {
		p.Exhausted = true
		p.ExhaustedAt = sim.Duration(info.ExhaustedAt)
		split = int(int64(info.ExhaustedAt) / int64(open.LatSeries.Interval()))
		if split > n {
			split = n
		}
	}
	p.PreP99 = open.LatSeries.PercentileRange(0, split, 99)
	p.PreP999 = open.LatSeries.PercentileRange(0, split, 99.9)
	p.PrePass = s.Target.met(p.PreP99, p.PreP999)
	if p.Exhausted && split < n {
		p.PostP99 = open.LatSeries.PercentileRange(split, n, 99)
		p.PostP999 = open.LatSeries.PercentileRange(split, n, 99.9)
		p.PostPass = s.Target.met(p.PostP99, p.PostP999)
	} else {
		// No post-cliff window within the horizon: the rate sustains for
		// as long as the probe can see.
		p.PostPass = p.PrePass
	}
	name := r.DeviceName
	if name == "" {
		name = r.Device
	}
	return p, name, info, nil
}

// Format writes a human-readable report: the two SLO-max rates, the credit
// model, and one row per probe.
func Format(w io.Writer, r *Report) {
	fmt.Fprintf(w, "SLO search: %s %s bs=%d %s, target %s, rates [%.0f, %.0f]/s ±%.0f, horizon %v\n",
		r.Device, r.Pattern, r.BlockSize, r.Arrival, r.Target, r.MinRate, r.MaxRate, r.Tolerance, r.Horizon)
	if r.Burstable {
		fmt.Fprintf(w, "  burstable: baseline %.0f MB/s, burst %.0f MB/s, floor %.0f MB/s, bank %.0f MB\n",
			r.BaselineBps/1e6, r.BurstBps/1e6, r.FloorBps/1e6, r.InitialCredits/1e6)
	}
	describe := func(rate float64, capped, below bool) string {
		switch {
		case below:
			return fmt.Sprintf("< %.0f/s (even the range minimum misses the target)", r.MinRate)
		case capped:
			return fmt.Sprintf(">= %.0f/s (the whole range passes)", r.MaxRate)
		default:
			return fmt.Sprintf("%.0f/s (%.1f MB/s offered)", rate, rate*float64(r.BlockSize)/1e6)
		}
	}
	fmt.Fprintf(w, "  pre-exhaustion SLO-max:  %s\n", describe(r.PreMaxRate, r.PreRangeCapped, r.PreBelowRange))
	fmt.Fprintf(w, "  post-cliff SLO-max:      %s\n", describe(r.PostMaxRate, r.PostRangeCapped, r.PostBelowRange))
	fmt.Fprintf(w, "  probes: %d distinct (%d simulated, %d cache-served), %d bisections (bound %d per search)\n",
		len(r.Probes), r.CellsRun, len(r.Probes)-r.CellsRun, r.Bisections, r.MaxBisections())
	fmt.Fprintf(w, "  %9s %9s %9s %10s %10s %10s %5s %5s\n",
		"rate/s", "offered", "exhaust@", "pre-p99", "post-p99", "peak-q", "pre", "post")
	for _, p := range r.Probes {
		exhaust := "never"
		if p.Exhausted {
			exhaust = fmt.Sprintf("%.2fs", p.ExhaustedAt.Seconds())
		}
		post := "-"
		if p.PostP99 > 0 {
			post = results.Latency(p.PostP99)
		}
		mark := func(b bool) string {
			if b {
				return "pass"
			}
			return "FAIL"
		}
		cached := ""
		if p.Cached {
			cached = "  (cached)"
		}
		fmt.Fprintf(w, "  %9.0f %8.1fM %9s %10s %10s %10d %5s %5s%s\n",
			p.RatePerSec, p.OfferedBps/1e6, exhaust, results.Latency(p.PreP99), post,
			p.MaxOutstanding, mark(p.PrePass), mark(p.PostPass), cached)
	}
}
