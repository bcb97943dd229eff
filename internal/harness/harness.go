// Package harness runs the paper's experiments (§III, Figures 2-5 and
// Table I) against simulated devices and formats the results as the paper
// reports them. Each Run function is a thin, paper-shaped view over an
// internal/expgrid Sweep: it declares the figure's axes, hands the grid to
// the expgrid worker pool (which runs one freshly constructed,
// appropriately preconditioned device per cell, in parallel), and folds
// the deterministically ordered CellResults into the figure's result type.
// Cell seeds are pure hashes of the cell coordinates, so a cell measures
// identical numbers whether the grid around it grows, shrinks, or runs on
// one worker or many. Options.Workers sizes the pool (default GOMAXPROCS).
package harness

import (
	"context"

	"essdsim/internal/blockdev"
	"essdsim/internal/expgrid"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// Factory constructs a fresh device (with its own engine) for one
// experiment cell. seed decorrelates repeated constructions.
type Factory = expgrid.Factory

// Options tune experiment durations; zero values take defaults.
type Options struct {
	CellDuration sim.Duration // per-cell measurement window (default 500 ms)
	// Warmup is excluded from statistics (default 50 ms). Negative values
	// mean explicitly no warmup, matching the expgrid convention.
	Warmup  sim.Duration
	Seed    uint64
	Workers int // worker-pool size for the grid (default GOMAXPROCS)
}

func (o Options) withDefaults() Options {
	if o.CellDuration <= 0 {
		o.CellDuration = 500 * sim.Millisecond
	}
	if o.Warmup == 0 {
		// Negative warmup passes through: expgrid turns it into "no
		// warmup at all" rather than the 50 ms default.
		o.Warmup = 50 * sim.Millisecond
	}
	return o
}

// sweep builds the expgrid base of one experiment from the options: the
// single-device axis, timing, and the experiment's seed label.
func (o Options) sweep(factory Factory, label string) expgrid.Sweep {
	return expgrid.Sweep{
		Devices:      expgrid.Devices("", factory),
		CellDuration: o.CellDuration,
		Warmup:       o.Warmup,
		Seed:         o.Seed,
		Label:        label,
	}
}

// runGrid executes a sweep with the options' worker pool. The harness API
// predates errors-as-values here: a failed cell means an invalid spec or a
// device bug, so it panics exactly as workload.Run did when the loops were
// serial.
func (o Options) runGrid(sw expgrid.Sweep) []expgrid.CellResult {
	results, err := expgrid.Runner{Workers: o.Workers}.Run(context.Background(), sw)
	if err != nil {
		panic(err)
	}
	return results
}

// Fig2Sizes are the paper's Figure 2 I/O sizes.
var Fig2Sizes = []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10}

// Fig2QDs are the paper's Figure 2 queue depths.
var Fig2QDs = []int{1, 2, 4, 8, 16}

// Fig2Patterns are the paper's four access patterns, in figure order.
var Fig2Patterns = []workload.Pattern{
	workload.RandWrite, workload.SeqWrite, workload.RandRead, workload.SeqRead,
}

// Fig4Sizes are the paper's Figure 4 I/O sizes.
var Fig4Sizes = []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}

// Fig4QDs are the paper's Figure 4 queue depths.
var Fig4QDs = []int{1, 2, 4, 8, 16, 32}

// Fig5Ratios are the paper's Figure 5 write ratios, in percent.
var Fig5Ratios = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// LatencyCell is one pixel of Figure 2.
type LatencyCell struct {
	Pattern    workload.Pattern
	BlockSize  int64
	QueueDepth int
	Avg        sim.Duration
	P999       sim.Duration
	Ops        uint64
}

// LatencyGrid is one device's Figure 2 measurement.
type LatencyGrid struct {
	Device string
	Cells  []LatencyCell
}

// Cell returns the cell for (pattern, size, qd), or nil.
func (g *LatencyGrid) Cell(p workload.Pattern, bs int64, qd int) *LatencyCell {
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Pattern == p && c.BlockSize == bs && c.QueueDepth == qd {
			return c
		}
	}
	return nil
}

// RunLatencyGridWith measures the Figure 2 latency grid over the given
// axes on fresh devices from factory (the paper's axes are Fig2Patterns,
// Fig2Sizes and Fig2QDs).
func RunLatencyGridWith(factory Factory, patterns []workload.Pattern, sizes []int64, qds []int, opts Options) *LatencyGrid {
	opts = opts.withDefaults()
	sw := opts.sweep(factory, "fig2")
	sw.Patterns = patterns
	sw.BlockSizes = sizes
	sw.QueueDepths = qds
	grid := &LatencyGrid{}
	for _, r := range opts.runGrid(sw) {
		grid.Device = r.Device
		s := r.Res.Lat.Summarize()
		grid.Cells = append(grid.Cells, LatencyCell{
			Pattern: r.Pattern, BlockSize: r.BlockSize, QueueDepth: r.QueueDepth,
			Avg: s.Mean, P999: s.P999, Ops: s.Count,
		})
	}
	return grid
}

// SustainedResult is one device's Figure 3 trace.
type SustainedResult struct {
	Device   string
	Capacity int64

	Interval sim.Duration // bucket width of Rates
	Rates    []float64    // write throughput per bucket, bytes/s

	TotalWritten int64
	Elapsed      sim.Duration

	// KneeCapFrac is the multiple of device capacity written when the
	// sustained throughput first dropped below 55% of its running peak;
	// -1 when no knee occurred.
	KneeCapFrac float64
	// TailRate is the mean throughput over the final five buckets.
	TailRate float64
	// PeakRate is the best smoothed throughput observed.
	PeakRate float64
	// Throttled reports whether an ESSD flow limiter engaged.
	Throttled bool
	// WriteAmp is the local SSD's final write amplification (1 for ESSDs).
	WriteAmp float64
}

// sustainedInfo is the post-run device state a sustained-write cell
// captures via the sweep's Inspect hook, while its device is still alive
// on the worker.
type sustainedInfo struct {
	capacity  int64
	throttled bool
	writeAmp  float64
}

// sustainedSweep is the Figure 3 cell shape: 128 KiB random writes at
// QD 32 until capMultiple × capacity has been written, on a pristine
// (not preconditioned) device.
func sustainedSweep(opts Options, capMultiple float64) expgrid.Sweep {
	sw := opts.sweep(nil, "fig3")
	sw.Patterns = []workload.Pattern{workload.RandWrite}
	sw.BlockSizes = []int64{128 << 10}
	sw.QueueDepths = []int{32}
	sw.CapMultiple = capMultiple
	sw.Precondition = expgrid.PrecondNone
	sw.Inspect = func(dev blockdev.Device, _ expgrid.Cell) any {
		info := sustainedInfo{capacity: dev.Capacity(), writeAmp: 1}
		if e, ok := dev.(interface{ Throttled() bool }); ok {
			info.throttled = e.Throttled()
		}
		if s, ok := dev.(interface{ FTLWriteAmp() float64 }); ok {
			info.writeAmp = s.FTLWriteAmp()
		}
		return info
	}
	return sw
}

// foldSustained computes the Figure 3 knee/tail/peak statistics of one
// sustained-write cell.
func foldSustained(r expgrid.CellResult) *SustainedResult {
	res := r.Res
	info := r.Info.(sustainedInfo)
	out := &SustainedResult{
		Device:       r.Device,
		Capacity:     info.capacity,
		Interval:     res.Series.Interval(),
		Rates:        res.Series.Rates(),
		TotalWritten: res.Bytes,
		Elapsed:      res.Elapsed,
		KneeCapFrac:  -1,
		Throttled:    info.throttled,
		WriteAmp:     info.writeAmp,
	}
	n := res.Series.Len()
	out.TailRate = res.Series.MeanRate(n-5, n)
	for i := 0; i+3 <= n; i++ {
		if m := res.Series.MeanRate(i, i+3); m > out.PeakRate {
			out.PeakRate = m
		}
	}
	if knee := res.Series.KneeIndex(0.55, 3); knee >= 0 {
		var written int64
		for i := 0; i <= knee; i++ {
			written += res.Series.Bytes(i)
		}
		out.KneeCapFrac = float64(written) / float64(out.Capacity)
	}
	return out
}

// RunSustainedWrite performs the Figure 3 experiment: random writes of
// capMultiple × capacity onto a fresh device, tracking the throughput
// timeline, the knee position, and the tail rate.
func RunSustainedWrite(factory Factory, capMultiple float64, opts Options) *SustainedResult {
	return RunSustainedWrites(expgrid.Devices("", factory), capMultiple, opts)[0]
}

// RunSustainedWrites performs the Figure 3 experiment for several devices
// concurrently — one expgrid cell per device — returning results in the
// devices' order.
func RunSustainedWrites(devices []expgrid.NamedFactory, capMultiple float64, opts Options) []*SustainedResult {
	opts = opts.withDefaults()
	sw := sustainedSweep(opts, capMultiple)
	sw.Devices = devices
	outs := make([]*SustainedResult, 0, len(devices))
	for _, r := range opts.runGrid(sw) {
		outs = append(outs, foldSustained(r))
	}
	return outs
}

// RandSeqCell is one point of Figure 4.
type RandSeqCell struct {
	BlockSize  int64
	QueueDepth int
	RandBW     float64 // bytes/s
	SeqBW      float64 // bytes/s
}

// Gain returns random/sequential throughput — the paper's blue lines.
func (c RandSeqCell) Gain() float64 {
	if c.SeqBW <= 0 {
		return 0
	}
	return c.RandBW / c.SeqBW
}

// RandSeqResult is one device's Figure 4 sweep.
type RandSeqResult struct {
	Device string
	Cells  []RandSeqCell
}

// Cell returns the cell for (size, qd), or nil.
func (r *RandSeqResult) Cell(bs int64, qd int) *RandSeqCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.BlockSize == bs && c.QueueDepth == qd {
			return c
		}
	}
	return nil
}

// MaxGain returns the largest random/sequential gain in the sweep — the
// paper's headline 1.52× / 2.79× numbers.
func (r *RandSeqResult) MaxGain() (gain float64, at RandSeqCell) {
	for _, c := range r.Cells {
		if g := c.Gain(); g > gain {
			gain, at = g, c
		}
	}
	return gain, at
}

// RunRandSeqSweepWith performs the Figure 4 experiment over the given
// sizes and queue depths (the paper's are Fig4Sizes and Fig4QDs).
func RunRandSeqSweepWith(factory Factory, sizes []int64, qds []int, opts Options) *RandSeqResult {
	opts = opts.withDefaults()
	sw := opts.sweep(factory, "fig4")
	sw.Patterns = []workload.Pattern{workload.RandWrite, workload.SeqWrite}
	sw.BlockSizes = sizes
	sw.QueueDepths = qds
	sw.Precondition = expgrid.PrecondWrites
	results := opts.runGrid(sw)
	// Enumeration order is pattern-major: the first half of the results is
	// the random sweep, the second half the sequential sweep, each in
	// (size, qd) row-major order.
	out := &RandSeqResult{}
	half := len(results) / 2
	for i := 0; i < half; i++ {
		rnd, seq := results[i], results[i+half]
		out.Device = rnd.Device
		out.Cells = append(out.Cells, RandSeqCell{
			BlockSize:  rnd.BlockSize,
			QueueDepth: rnd.QueueDepth,
			RandBW:     rnd.Res.Throughput(),
			SeqBW:      seq.Res.Throughput(),
		})
	}
	return out
}

// MixedPoint is one write-ratio point of Figure 5.
type MixedPoint struct {
	WriteRatioPct int
	TotalBW       float64 // bytes/s, reads+writes
	WriteBW       float64 // bytes/s, writes only
}

// MixedResult is one device's Figure 5 sweep.
type MixedResult struct {
	Device string
	Points []MixedPoint
}

// Spread returns (max-min)/max of total throughput across ratios — near
// zero for a budget-bound ESSD (Observation #4), large for the local SSD.
func (r *MixedResult) Spread() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	min, max := r.MinMax()
	if max <= 0 {
		return 0
	}
	return (max - min) / max
}

// MinMax returns the extreme total throughputs of the sweep.
func (r *MixedResult) MinMax() (min, max float64) {
	if len(r.Points) == 0 {
		return 0, 0
	}
	min, max = r.Points[0].TotalBW, r.Points[0].TotalBW
	for _, p := range r.Points[1:] {
		if p.TotalBW < min {
			min = p.TotalBW
		}
		if p.TotalBW > max {
			max = p.TotalBW
		}
	}
	return min, max
}

// IOPSPoint is one size point of the Observation #4 footnote experiment.
type IOPSPoint struct {
	BlockSize int64
	IOPS      float64
	Bytes     float64 // bytes/s at that size
}

// IOPSResult holds the IOPS-vs-size sweep. The paper notes that while the
// ESSD's byte throughput is deterministic, its IOPS ceiling is not — it is
// tightly coupled to I/O size. Spread over this sweep quantifies that.
type IOPSResult struct {
	Device string
	Points []IOPSPoint
}

// IOPSSpread returns (max-min)/max of achieved IOPS across sizes.
func (r *IOPSResult) IOPSSpread() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	min, max := r.Points[0].IOPS, r.Points[0].IOPS
	for _, p := range r.Points[1:] {
		if p.IOPS < min {
			min = p.IOPS
		}
		if p.IOPS > max {
			max = p.IOPS
		}
	}
	if max <= 0 {
		return 0
	}
	return (max - min) / max
}

// RunIOPSSweep measures saturated random-write IOPS across I/O sizes —
// the paper's note that Observation #4 "holds only for throughput and not
// for IOPS".
func RunIOPSSweep(factory Factory, sizes []int64, opts Options) *IOPSResult {
	opts = opts.withDefaults()
	sw := opts.sweep(factory, "o4-iops")
	sw.Patterns = []workload.Pattern{workload.RandWrite}
	sw.BlockSizes = sizes
	sw.QueueDepths = []int{32}
	sw.Precondition = expgrid.PrecondWrites
	out := &IOPSResult{}
	for _, r := range opts.runGrid(sw) {
		out.Device = r.Device
		out.Points = append(out.Points, IOPSPoint{
			BlockSize: r.BlockSize,
			IOPS:      r.Res.IOPS(),
			Bytes:     r.Res.Throughput(),
		})
	}
	return out
}

// RunMixedSweepWith performs the Figure 5 experiment: 128 KiB random I/O
// at QD 32 over the given write ratios in percent (the paper's are
// Fig5Ratios).
func RunMixedSweepWith(factory Factory, ratios []int, opts Options) *MixedResult {
	opts = opts.withDefaults()
	// Keep the SSD's cell short enough that random overwrites on a full
	// device do not push it into GC mid-cell (Figure 5 measures the
	// pattern sensitivity of peak bandwidth, not GC).
	if opts.CellDuration > 200*sim.Millisecond {
		opts.CellDuration = 200 * sim.Millisecond
	}
	if opts.Warmup >= opts.CellDuration {
		opts.Warmup = opts.CellDuration / 4
	}
	sw := opts.sweep(factory, "fig5")
	sw.Patterns = []workload.Pattern{workload.Mixed}
	sw.BlockSizes = []int64{128 << 10}
	sw.QueueDepths = []int{32}
	sw.WriteRatiosPct = ratios
	sw.Precondition = expgrid.PrecondFull // full device so reads hit data
	out := &MixedResult{}
	for _, r := range opts.runGrid(sw) {
		out.Device = r.Device
		// Use the warmup the cell actually ran with (negative Options
		// warmup reaches the spec as zero).
		window := (r.Res.Elapsed - r.Res.Spec.Warmup).Seconds()
		var writeBW float64
		if window > 0 {
			writeBW = float64(int64(r.Res.WriteLat.Count())*(128<<10)) / window
		}
		out.Points = append(out.Points, MixedPoint{
			WriteRatioPct: r.WriteRatioPct,
			TotalBW:       r.Res.Throughput(),
			WriteBW:       writeBW,
		})
	}
	return out
}
