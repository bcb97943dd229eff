package workload

import (
	"fmt"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
)

// Pattern is a FIO-style access pattern.
type Pattern uint8

// Supported patterns.
const (
	RandWrite Pattern = iota
	SeqWrite
	RandRead
	SeqRead
	Mixed // random offsets, WriteRatio of ops are writes
)

// String returns the fio job name of the pattern.
func (p Pattern) String() string {
	switch p {
	case RandWrite:
		return "randwrite"
	case SeqWrite:
		return "write"
	case RandRead:
		return "randread"
	case SeqRead:
		return "read"
	case Mixed:
		return "randrw"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// ParsePattern converts a fio rw= value into a Pattern.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "randwrite":
		return RandWrite, nil
	case "write", "seqwrite":
		return SeqWrite, nil
	case "randread":
		return RandRead, nil
	case "read", "seqread":
		return SeqRead, nil
	case "randrw", "rw", "mixed":
		return Mixed, nil
	default:
		return 0, fmt.Errorf("workload: unknown pattern %q", s)
	}
}

// IsWrite reports whether the pattern issues only writes.
func (p Pattern) IsWrite() bool { return p == RandWrite || p == SeqWrite }

// Spec describes one workload run.
type Spec struct {
	Pattern    Pattern
	BlockSize  int64   // bytes per I/O
	QueueDepth int     // outstanding I/Os
	WriteRatio float64 // Mixed only: fraction of writes in [0,1]

	// Stop conditions; the first reached wins. Zero disables a condition,
	// but at least one of Duration/TotalBytes/MaxOps must be set.
	Duration   sim.Duration // simulated run time (excluding drain)
	TotalBytes int64        // bytes submitted
	MaxOps     uint64       // I/Os submitted

	// Warmup excludes completions before this much simulated time from the
	// recorded statistics (the timeline still covers the full run).
	Warmup sim.Duration

	// Region restricts I/O to the first Region bytes of the device
	// (0 = whole device).
	Region int64

	Seed uint64
}

// Validate reports a descriptive error for nonsensical specs.
func (s Spec) Validate(dev blockdev.Device) error {
	bs := int64(dev.BlockSize())
	switch {
	case s.BlockSize <= 0 || s.BlockSize%bs != 0:
		return fmt.Errorf("workload: block size %d not a multiple of device block %d", s.BlockSize, bs)
	case s.QueueDepth < 1:
		return fmt.Errorf("workload: queue depth %d < 1", s.QueueDepth)
	case s.Duration <= 0 && s.TotalBytes <= 0 && s.MaxOps == 0:
		return fmt.Errorf("workload: no stop condition set")
	case s.Pattern == Mixed && (s.WriteRatio < 0 || s.WriteRatio > 1):
		return fmt.Errorf("workload: write ratio %v out of [0,1]", s.WriteRatio)
	case s.Region < 0 || s.Region > dev.Capacity():
		return fmt.Errorf("workload: region %d out of range", s.Region)
	case s.Region > 0 && s.Region < s.BlockSize:
		return fmt.Errorf("workload: region smaller than one I/O")
	case s.Region == 0 && s.BlockSize > dev.Capacity():
		// A zero-slot region would panic the offset draw (Int64N(0)).
		return fmt.Errorf("workload: block size %d exceeds device capacity %d", s.BlockSize, dev.Capacity())
	}
	return nil
}

// Result holds the measurements of one run.
type Result struct {
	Spec    Spec
	Device  string
	Started sim.Time
	Elapsed sim.Duration // submission window (excludes drain of the tail)

	Lat      *stats.Histogram // all I/Os
	ReadLat  *stats.Histogram
	WriteLat *stats.Histogram

	Series      *stats.ThroughputSeries // completed bytes per interval
	WriteSeries *stats.ThroughputSeries

	Ops   uint64
	Bytes int64 // completed bytes (recorded window)
}

// recordedWindow returns the span over which statistics were recorded
// (the submission window minus warmup).
func (r *Result) recordedWindow() float64 {
	return (r.Elapsed - r.Spec.Warmup).Seconds()
}

// Throughput returns mean completed bytes/s over the recorded window.
func (r *Result) Throughput() float64 {
	secs := r.recordedWindow()
	if secs <= 0 {
		return 0
	}
	return float64(r.Bytes) / secs
}

// IOPS returns mean completed I/Os per second over the recorded window.
func (r *Result) IOPS() float64 {
	secs := r.recordedWindow()
	if secs <= 0 {
		return 0
	}
	return float64(r.Ops) / secs
}

// Run executes the workload on the device, driving the device's engine
// until every outstanding I/O drains. It panics on an invalid spec (harness
// programming error).
func Run(dev blockdev.Device, spec Spec) *Result {
	if err := spec.Validate(dev); err != nil {
		panic(err)
	}
	eng := dev.Engine()
	rng := sim.NewRNG(spec.Seed^0x9a2c, spec.Seed+0x7b)
	res := &Result{
		Spec:        spec,
		Device:      dev.Name(),
		Started:     eng.Now(),
		Lat:         stats.NewHistogram(),
		ReadLat:     stats.NewHistogram(),
		WriteLat:    stats.NewHistogram(),
		Series:      stats.NewThroughputSeries(sim.Second),
		WriteSeries: stats.NewThroughputSeries(sim.Second),
	}
	region := spec.Region
	if region == 0 {
		region = dev.Capacity()
	}
	slots := region / spec.BlockSize
	began := eng.Now()
	lastDone := began
	var submittedBytes int64
	var submittedOps uint64
	var seqOff int64
	stopped := false

	shouldStop := func() bool {
		if stopped {
			return true
		}
		switch {
		case spec.Duration > 0 && eng.Now().Sub(began) >= spec.Duration:
			stopped = true
		case spec.TotalBytes > 0 && submittedBytes >= spec.TotalBytes:
			stopped = true
		case spec.MaxOps > 0 && submittedOps >= spec.MaxOps:
			stopped = true
		}
		return stopped
	}

	nextOp := func() (blockdev.Op, int64) {
		var op blockdev.Op
		seq := false
		switch spec.Pattern {
		case RandWrite:
			op = blockdev.Write
		case SeqWrite:
			op, seq = blockdev.Write, true
		case RandRead:
			op = blockdev.Read
		case SeqRead:
			op, seq = blockdev.Read, true
		case Mixed:
			if rng.Float64() < spec.WriteRatio {
				op = blockdev.Write
			} else {
				op = blockdev.Read
			}
		}
		var off int64
		if seq {
			off = seqOff
			seqOff += spec.BlockSize
			if seqOff+spec.BlockSize > region {
				seqOff = 0
			}
		} else {
			off = rng.Int64N(slots) * spec.BlockSize
		}
		return op, off
	}

	var submit func(r *blockdev.Request)
	onComplete := func(r *blockdev.Request, at sim.Time) {
		lastDone = at
		lat := r.Latency(at)
		rel := at.Sub(res.Started)
		if rel >= spec.Warmup {
			res.Lat.Record(lat)
			if r.Op == blockdev.Read {
				res.ReadLat.Record(lat)
			} else {
				res.WriteLat.Record(lat)
			}
			res.Ops++
			res.Bytes += r.Size
		}
		res.Series.Add(sim.Time(rel), r.Size)
		if r.Op == blockdev.Write {
			res.WriteSeries.Add(sim.Time(rel), r.Size)
		}
		submit(r)
	}
	// submit issues the next request in r, the request that just completed
	// (devices call OnComplete last and keep no reference to it), or in a
	// new one while the queue fills: a run holds at most QueueDepth
	// requests.
	submit = func(r *blockdev.Request) {
		if shouldStop() {
			return
		}
		op, off := nextOp()
		submittedBytes += spec.BlockSize
		submittedOps++
		if r == nil {
			r = &blockdev.Request{Size: spec.BlockSize, OnComplete: onComplete}
		}
		r.Op, r.Offset = op, off
		dev.Submit(r)
	}
	for i := 0; i < spec.QueueDepth && !shouldStop(); i++ {
		submit(nil)
	}
	// For duration-bounded runs the stop condition is only observed at
	// completions (it will panic via validation rather than hang in
	// practice). Elapsed measures to the workload's own last completion.
	eng.Run()
	res.Elapsed = lastDone.Sub(began)
	if spec.Duration > 0 && res.Elapsed > spec.Duration {
		// Exclude the drain tail from the mean-throughput window: the
		// submission window closed at spec.Duration.
		res.Elapsed = spec.Duration
	}
	return res
}
