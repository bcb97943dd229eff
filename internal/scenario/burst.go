package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"essdsim/internal/blockdev"
	"essdsim/internal/expgrid"
	"essdsim/internal/profiles"
	"essdsim/internal/results"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
	"essdsim/internal/workload"
)

// BurstSweep declares a burst-credit exhaustion suite: 256 KiB mixed
// random I/O across write-ratio × arrival-shape × offered-rate on each
// burstable device, run open-loop so the offered timeline (not device
// back-pressure) drives credit consumption. Zero-valued fields take
// defaults.
type BurstSweep struct {
	// Devices are the volume tiers under test (default BurstTierDevices).
	// Non-burstable devices are allowed; their credit columns read as
	// "not burstable".
	Devices []expgrid.NamedFactory

	WriteRatiosPct []int              // default 0, 50, 100
	Arrivals       []workload.Arrival // default Uniform, Bursty
	RatesPerSec    []float64          // offered req/s (default 1500, 3000)

	Ops uint64 // requests per cell (default 12000)

	// Cache, when non-nil, serves already-computed cells from the
	// sweep-level result cache instead of re-simulating them; a warm
	// re-run of the same suite executes zero new cells and reports
	// byte-identical results.
	Cache *expgrid.Cache

	Seed    uint64
	Workers int // expgrid pool size (0 = GOMAXPROCS)

	// OnProgress, when non-nil, receives one expgrid.Progress per
	// completed cell (elapsed/ETA and cached count included). Invoked
	// serially, display-only.
	OnProgress func(expgrid.Progress)
}

// burstBlockSize is the request size of every burst cell.
const burstBlockSize = 256 << 10

func (s BurstSweep) withDefaults() BurstSweep {
	if len(s.Devices) == 0 {
		s.Devices = BurstTierDevices()
	}
	if len(s.WriteRatiosPct) == 0 {
		s.WriteRatiosPct = []int{0, 50, 100}
	}
	if len(s.Arrivals) == 0 {
		s.Arrivals = []workload.Arrival{workload.Uniform, workload.Bursty}
	}
	if len(s.RatesPerSec) == 0 {
		s.RatesPerSec = []float64{1500, 3000}
	}
	if s.Ops == 0 {
		s.Ops = 12000
	}
	return s
}

// BurstTierDevices returns the default device axis: the two calibrated
// burstable tiers (gp2 class and its smaller sibling).
func BurstTierDevices() []expgrid.NamedFactory {
	return []expgrid.NamedFactory{
		{Name: "gp2", New: profileFactory("gp2")},
		{Name: "gp2s", New: profileFactory("gp2s")},
	}
}

func profileFactory(name string) expgrid.Factory {
	return func(seed uint64) blockdev.Device {
		dev, err := profiles.ByName(name, sim.AcquireEngine(), sim.NewRNG(seed, seed^0x5c))
		if err != nil {
			panic(err) // expgrid recovers this into CellResult.Err
		}
		return dev
	}
}

// BurstCell is one measured point of the suite.
type BurstCell struct {
	Device        string
	WriteRatioPct int
	Arrival       workload.Arrival
	RatePerSec    float64 // offered requests/s
	OfferedBps    float64 // offered bytes/s (rate × block size)

	Ops            uint64
	Bytes          int64
	Elapsed        sim.Duration
	Lat            stats.Summary
	MaxOutstanding int

	// Credit state captured on the still-alive device after the run.
	Burstable bool
	// CreditsLeft is the balance when the cell finished draining — spends
	// are charged at enqueue time, so it includes credits re-earned while
	// the backlog completed and can sit well above the mid-run trough.
	CreditsLeft float64
	Exhaustions uint64       // times the balance hit zero
	ExhaustedAt sim.Duration // time to first exhaustion; -1 when never
	Floor       float64      // post-exhaustion sustained bytes/s; -1 if n/a
	Throttled   bool         // provider flow limiter engaged
	BudgetStall sim.Duration // cumulative throughput-budget wait

	// The latency cliff: completion-weighted mean latency and throughput
	// before and after the first exhaustion. Zero/whole-run when the cell
	// never exhausted.
	PreCliffLat  sim.Duration
	PostCliffLat sim.Duration
	PreCliffBps  float64
	PostCliffBps float64

	// Timeline is the cell's per-interval completion record (10 ms
	// buckets): plotted, it is the latency cliff itself. WriteBurstTimelineCSV
	// dumps it across all cells.
	Timeline []TimelinePoint
}

// TimelinePoint is one sample interval of a cell's completion timeline.
type TimelinePoint struct {
	Start       sim.Duration // interval start, relative to cell start
	Bytes       int64        // bytes completed in the interval
	Completions uint64       // requests completed in the interval
	MeanLat     sim.Duration // mean latency of those completions (0 if none)
}

// BurstReport is the full suite's measurement.
type BurstReport struct {
	BlockSize int64
	Ops       uint64
	// SampleInterval is the bucket width of every cell's Timeline.
	SampleInterval sim.Duration
	Cells          []BurstCell
	// CachedCells counts cells served from the sweep cache instead of a
	// fresh simulation.
	CachedCells int
}

// CreditInfo is the post-run credit and throttle state InspectCredits
// captures on the worker, while the cell's device is still alive. It is
// the Inspect payload of every credit-aware suite (burst scenarios, SLO
// searches) and is JSON-round-trippable so cached cells survive
// persistence (see DecodeCreditInfo).
type CreditInfo struct {
	Burstable   bool         `json:"burstable"`
	Credits     float64      `json:"credits"`
	Exhaustions uint64       `json:"exhaustions"`
	ExhaustedAt sim.Time     `json:"exhausted_at"` // -1 when never exhausted
	Floor       float64      `json:"floor"`        // -1 when not burstable
	Baseline    float64      `json:"baseline"`     // credit-earn bytes/s; -1 when not burstable
	Burst       float64      `json:"burst"`        // burst-ceiling bytes/s; -1 when not burstable
	Throttled   bool         `json:"throttled"`
	Stall       sim.Duration `json:"stall"`
}

// InspectCredits is an expgrid Inspect hook capturing a CreditInfo from
// whatever credit interfaces the cell's device implements. Non-burstable
// devices report the -1 sentinels.
func InspectCredits(dev blockdev.Device, _ expgrid.Cell) any {
	info := CreditInfo{ExhaustedAt: -1, Floor: -1, Baseline: -1, Burst: -1}
	if d, ok := dev.(interface{ Burstable() bool }); ok {
		info.Burstable = d.Burstable()
	}
	if d, ok := dev.(interface{ Credits() float64 }); ok && info.Burstable {
		info.Credits = d.Credits()
	}
	if d, ok := dev.(interface{ CreditExhaustions() uint64 }); ok {
		info.Exhaustions = d.CreditExhaustions()
	}
	if d, ok := dev.(interface{ CreditExhaustedAt() sim.Time }); ok {
		info.ExhaustedAt = d.CreditExhaustedAt()
	}
	if d, ok := dev.(interface{ CreditFloor() float64 }); ok {
		info.Floor = d.CreditFloor()
	}
	if d, ok := dev.(interface{ CreditBaseline() float64 }); ok {
		info.Baseline = d.CreditBaseline()
	}
	if d, ok := dev.(interface{ CreditBurst() float64 }); ok {
		info.Burst = d.CreditBurst()
	}
	if d, ok := dev.(interface{ Throttled() bool }); ok {
		info.Throttled = d.Throttled()
	}
	if d, ok := dev.(interface{ BudgetStall() sim.Duration }); ok {
		info.Stall = d.BudgetStall()
	}
	return info
}

// DecodeCreditInfo is the expgrid DecodeInfo hook matching InspectCredits:
// it rehydrates a persisted CreditInfo from its JSON form.
func DecodeCreditInfo(raw []byte) (any, error) {
	var info CreditInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return nil, err
	}
	return info, nil
}

// RunBurst executes the suite on the expgrid worker pool and folds the
// cells into a report. Results are deterministic and identical for any
// worker count. Cancel ctx to stop early.
func RunBurst(ctx context.Context, s BurstSweep) (*BurstReport, error) {
	s = s.withDefaults()
	sw := expgrid.Sweep{
		Kind:           expgrid.Open,
		Devices:        s.Devices,
		Patterns:       []workload.Pattern{workload.Mixed},
		BlockSizes:     []int64{burstBlockSize},
		WriteRatiosPct: s.WriteRatiosPct,
		Arrivals:       s.Arrivals,
		RatesPerSec:    s.RatesPerSec,
		OpenOps:        s.Ops,
		Precondition:   expgrid.PrecondFull, // reads must hit data
		Inspect:        InspectCredits,
		Cache:          s.Cache,
		DecodeInfo:     DecodeCreditInfo,
		Seed:           s.Seed,
		Label:          "burst", // seed decorrelation label
	}
	results, err := expgrid.Runner{Workers: s.Workers, OnProgress: s.OnProgress}.Run(ctx, sw)
	if err != nil {
		return nil, err
	}
	rep := &BurstReport{BlockSize: burstBlockSize, Ops: s.Ops}
	for _, r := range results {
		if rep.SampleInterval == 0 {
			rep.SampleInterval = r.Open.Series.Interval()
		}
		rep.Cells = append(rep.Cells, foldBurstCell(r))
		if r.Cached {
			rep.CachedCells++
		}
	}
	return rep, nil
}

func foldBurstCell(r expgrid.CellResult) BurstCell {
	open := r.Open
	info := r.Info.(CreditInfo)
	// Prefer the short, stable axis name over the device's display name;
	// the axis name is what a caller sweeps and filters on.
	name := r.DeviceName
	if name == "" {
		name = r.Device
	}
	cell := BurstCell{
		Device:        name,
		WriteRatioPct: r.WriteRatioPct,
		Arrival:       r.Arrival,
		RatePerSec:    r.RatePerSec,
		OfferedBps:    r.RatePerSec * float64(r.BlockSize),

		Ops:            open.Ops,
		Bytes:          open.Bytes,
		Elapsed:        open.Elapsed,
		Lat:            open.Lat.Summarize(),
		MaxOutstanding: open.MaxOutstanding,

		Burstable:   info.Burstable,
		CreditsLeft: info.Credits,
		Exhaustions: info.Exhaustions,
		ExhaustedAt: -1,
		Floor:       info.Floor,
		Throttled:   info.Throttled,
		BudgetStall: info.Stall,
	}
	n := open.LatSeries.Len()
	if info.ExhaustedAt >= 0 {
		// The cell's device starts on a fresh engine at time zero and
		// preconditioning consumes no virtual time, so the exhaustion
		// timestamp is already relative to the cell start.
		cell.ExhaustedAt = sim.Duration(info.ExhaustedAt)
		split := int(int64(info.ExhaustedAt) / int64(open.LatSeries.Interval()))
		if split > n {
			split = n
		}
		cell.PreCliffLat = open.LatSeries.MeanRange(0, split)
		cell.PostCliffLat = open.LatSeries.MeanRange(split, n)
		cell.PreCliffBps = open.Series.MeanRate(0, split)
		cell.PostCliffBps = open.Series.MeanRate(split, open.Series.Len())
	} else {
		cell.PreCliffLat = open.LatSeries.MeanRange(0, n)
		cell.PreCliffBps = open.Series.MeanRate(0, open.Series.Len())
	}
	points := open.Series.Len()
	if n > points {
		points = n
	}
	interval := open.Series.Interval()
	cell.Timeline = make([]TimelinePoint, points)
	for i := 0; i < points; i++ {
		cell.Timeline[i] = TimelinePoint{
			Start:       sim.Duration(i) * interval,
			Bytes:       open.Series.Bytes(i),
			Completions: open.LatSeries.Count(i),
			MeanLat:     open.LatSeries.Mean(i),
		}
	}
	return cell
}

// FormatBurst writes the report as an aligned table: one row per cell with
// its credit-exhaustion time, post-run credit state, throttle and
// budget-stall columns, and the pre/post-exhaustion latency cliff.
func FormatBurst(w io.Writer, r *BurstReport) {
	fmt.Fprintf(w, "Burst-credit scenario: %d KiB mixed random I/O, %d requests per cell (open loop)\n",
		r.BlockSize>>10, r.Ops)
	fmt.Fprintf(w, "%-6s %4s %-8s %9s %9s %9s %9s %10s %10s %10s %10s\n",
		"device", "wr%", "arrival", "offered", "exhaust@", "credits", "stall",
		"pre-lat", "post-lat", "pre-MB/s", "post-MB/s")
	for _, c := range r.Cells {
		exhaust, credits := "-", "-"
		if c.Burstable {
			credits = fmt.Sprintf("%.0fMB", c.CreditsLeft/1e6)
			if c.ExhaustedAt >= 0 {
				exhaust = fmt.Sprintf("%.2fs", c.ExhaustedAt.Seconds())
			} else {
				exhaust = "never"
			}
		}
		post := "-"
		postBW := "-"
		if c.ExhaustedAt >= 0 {
			post = results.Latency(c.PostCliffLat)
			postBW = fmt.Sprintf("%.1f", c.PostCliffBps/1e6)
		}
		name := c.Device
		if len(name) > 6 {
			name = name[:6]
		}
		// BudgetStall sums every request's wait on the throughput budget,
		// so heavy queueing makes it far exceed the wall-clock span.
		fmt.Fprintf(w, "%-6s %4d %-8s %8.1fM %9s %9s %8.0fs %10s %10s %10.1f %10s",
			name, c.WriteRatioPct, c.Arrival, c.OfferedBps/1e6, exhaust, credits,
			c.BudgetStall.Seconds(), results.Latency(c.PreCliffLat), post,
			c.PreCliffBps/1e6, postBW)
		if c.Throttled {
			fmt.Fprint(w, "  THROTTLED")
		}
		fmt.Fprintln(w)
	}
}
