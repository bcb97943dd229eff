package workload

import (
	"fmt"
	"math"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
)

// Arrival shapes for open-loop workloads.
type Arrival uint8

// Supported arrival processes.
const (
	// Uniform spaces requests evenly: the smoothed timeline of
	// Implication #4.
	Uniform Arrival = iota
	// Poisson draws exponential inter-arrival gaps.
	Poisson
	// Bursty issues each second's worth of requests at the start of the
	// second: the bursty timeline Implication #4 warns about.
	Bursty
)

// String names the arrival process.
func (a Arrival) String() string {
	switch a {
	case Uniform:
		return "uniform"
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	default:
		return fmt.Sprintf("arrival(%d)", uint8(a))
	}
}

// ParseArrival converts an arrival-shape name ("uniform", "poisson",
// "bursty") into an Arrival — the inverse of String, shared by every CLI
// flag that selects an arrival process.
func ParseArrival(s string) (Arrival, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	default:
		return 0, fmt.Errorf("workload: unknown arrival %q", s)
	}
}

// OpenSpec describes an open-loop (arrival-driven) workload: requests are
// issued on a schedule regardless of completions, exposing queueing when
// the device cannot keep up — the regime where the provisioned budget and
// burst credits of an ESSD dominate behaviour.
type OpenSpec struct {
	Pattern    Pattern
	BlockSize  int64
	WriteRatio float64

	// RatePerSec is the offered request rate.
	RatePerSec float64
	// Arrival selects the arrival process.
	Arrival Arrival
	// Count is the total number of requests to issue.
	Count uint64

	// SampleInterval is the bucket width of the result's completion
	// timelines (default 10 ms).
	SampleInterval sim.Duration

	// WindowPercentiles keeps a full latency histogram per SampleInterval
	// bucket so LatSeries.PercentileRange can report p99/p99.9 over
	// arbitrary windows (pre- vs post-exhaustion). Costs a few KiB per
	// non-empty bucket; SLO searches turn it on, bulk sweeps need not.
	WindowPercentiles bool

	Seed uint64
}

// Validate reports a descriptive error for nonsensical specs.
func (s OpenSpec) Validate(dev blockdev.Device) error {
	bs := int64(dev.BlockSize())
	switch {
	case s.BlockSize <= 0 || s.BlockSize%bs != 0:
		return fmt.Errorf("workload: block size %d not a multiple of device block %d", s.BlockSize, bs)
	case !(s.RatePerSec > 0) || math.IsInf(s.RatePerSec, 1):
		return fmt.Errorf("workload: rate %v must be finite and positive", s.RatePerSec)
	case s.Count == 0:
		return fmt.Errorf("workload: count must be positive")
	case s.Pattern == Mixed && (s.WriteRatio < 0 || s.WriteRatio > 1):
		return fmt.Errorf("workload: write ratio %v out of [0,1]", s.WriteRatio)
	case s.BlockSize > dev.Capacity():
		// A zero-slot device would panic the offset draw (Int64N(0)).
		return fmt.Errorf("workload: device %d smaller than one %d-byte I/O", dev.Capacity(), s.BlockSize)
	}
	return nil
}

// OpenResult holds open-loop measurements. Latency here includes the time
// a request waited behind the device's queues after its scheduled arrival,
// which is exactly what a deadline-driven service experiences.
type OpenResult struct {
	Spec    OpenSpec
	Device  string
	Ops     uint64
	Bytes   int64
	Elapsed sim.Duration
	Lat     *stats.Histogram
	// MaxOutstanding is the peak number of in-flight requests — the queue
	// the arrival process built up.
	MaxOutstanding int

	// Series buckets completed bytes by completion time and LatSeries the
	// mean latency, both at Spec.SampleInterval width. Splitting them at an
	// event time (credit exhaustion, throttle engagement) exposes the
	// before/after cliff of burstable tiers.
	Series    *stats.ThroughputSeries
	LatSeries *stats.LatencySeries
}

// Throughput returns mean completed bytes/s over the elapsed span.
func (r *OpenResult) Throughput() float64 {
	secs := r.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Bytes) / secs
}

// RunOpen executes the open-loop workload, driving the engine until all
// requests complete. It panics on an invalid spec.
func RunOpen(dev blockdev.Device, spec OpenSpec) *OpenResult {
	finish := startOpen(dev, spec)
	dev.Engine().Run()
	return finish()
}

// ArrivalSource yields the issue times of an open-loop arrival process,
// one arrival at a time, as offsets from the generator's start: Uniform
// spaces arrivals 1/rate apart, Poisson draws each exponential gap from
// the generator's own RNG, and Bursty issues each second's worth of
// arrivals at the start of the second. A generator calls Next once per
// arrival and makes that arrival's own draws after it, so its RNG sees,
// per arrival, the Poisson gap (every arrival but the first) and then the
// generator's draws.
type ArrivalSource struct {
	shape     Arrival
	gap       sim.Duration
	perSecond uint64
	at        sim.Duration
	i         uint64 // arrivals drawn so far
}

// NewArrivalSource returns the source of an arrival process of the given
// shape at ratePerSec arrivals per second.
func NewArrivalSource(shape Arrival, ratePerSec float64) ArrivalSource {
	perSecond := int(ratePerSec)
	if perSecond < 1 {
		perSecond = 1
	}
	return ArrivalSource{
		shape:     shape,
		gap:       sim.Duration(float64(sim.Second) / ratePerSec),
		perSecond: uint64(perSecond),
	}
}

// Next returns the offset of the next arrival from the generator's start.
func (s *ArrivalSource) Next(rng *sim.RNG) sim.Duration {
	switch s.shape {
	case Uniform:
		s.at = sim.Duration(s.i) * s.gap
	case Poisson:
		if s.i > 0 {
			s.at += sim.Duration(-math.Log(1-rng.Float64()) * float64(s.gap))
		}
	case Bursty:
		s.at = sim.Duration(s.i/s.perSecond) * sim.Second
	}
	s.i++
	return s.at
}

// openGen is one open-loop generator. It keeps exactly one arrival
// pending: arrival i runs on sequence number base+i, reserved when the
// generator starts, so it holds the (time, sequence) key that scheduling
// the whole timetable up front would have given it, and the engine runs
// every event in the same order. Draws come from the generator's private
// RNG in a fixed order per arrival (Poisson gap, op, offset), so the op
// sequence is a pure function of the spec, however other tenants' events
// interleave and whenever in host time a draw is made.
type openGen struct {
	dev  blockdev.Device
	eng  *sim.Engine
	spec OpenSpec
	rng  *sim.RNG
	src  ArrivalSource
	res  *OpenResult

	capacity, slots, seqOff int64
	start, lastDone         sim.Time
	outstanding             int

	base uint64 // sequence number of arrival 0
	i    uint64 // index of the pending arrival
	// The pending arrival's issue time, op and offset.
	at   sim.Time
	op   blockdev.Op
	off  int64
	fire func(any) // arrive, bound once

	free *openReq // recycled request records
}

// openReq is one in-flight arrival: its request, with OnComplete bound
// once to done, and its issue time. Records are recycled through the
// generator's free list, so a steady-state arrival allocates nothing.
type openReq struct {
	r        blockdev.Request
	g        *openGen
	issueAt  sim.Time
	nextFree *openReq
}

// startOpen validates the spec (panicking on harness programming errors)
// and schedules the first arrival on the device's engine; each arrival
// schedules the next when it fires. It returns a finalizer that closes the
// measurement once the caller has drained the engine. RunTenants uses the
// split to start several open-loop generators on one shared engine before
// a single run drains them all.
func startOpen(dev blockdev.Device, spec OpenSpec) func() *OpenResult {
	if err := spec.Validate(dev); err != nil {
		panic(err)
	}
	if spec.SampleInterval <= 0 {
		spec.SampleInterval = 10 * sim.Millisecond
	}
	newLatSeries := stats.NewLatencySeries
	if spec.WindowPercentiles {
		newLatSeries = stats.NewLatencySeriesHist
	}
	eng := dev.Engine()
	g := &openGen{
		dev: dev, eng: eng, spec: spec,
		rng: sim.NewRNG(spec.Seed^0x09e4, spec.Seed+0x11),
		src: NewArrivalSource(spec.Arrival, spec.RatePerSec),
		res: &OpenResult{
			Spec: spec, Device: dev.Name(), Lat: stats.NewHistogram(),
			Series:    stats.NewThroughputSeries(spec.SampleInterval),
			LatSeries: newLatSeries(spec.SampleInterval),
		},
		capacity: dev.Capacity(),
		start:    eng.Now(),
	}
	g.slots = g.capacity / spec.BlockSize
	g.lastDone = g.start
	g.base = eng.Reserve(spec.Count)
	g.fire = g.arrive
	g.next()
	// Elapsed measures to this workload's own last completion, not the
	// engine clock: on a shared engine another tenant may keep the clock
	// running after this generator drained.
	return func() *OpenResult {
		g.res.Elapsed = g.lastDone.Sub(g.start)
		return g.res
	}
}

// next draws arrival g.i and schedules it on its reserved sequence number.
func (g *openGen) next() {
	g.at = g.start.Add(g.src.Next(g.rng))
	g.op = blockdev.Read
	switch g.spec.Pattern {
	case RandWrite, SeqWrite:
		g.op = blockdev.Write
	case Mixed:
		if g.rng.Float64() < g.spec.WriteRatio {
			g.op = blockdev.Write
		}
	}
	switch g.spec.Pattern {
	case SeqWrite, SeqRead:
		g.off = g.seqOff
		g.seqOff += g.spec.BlockSize
		if g.seqOff+g.spec.BlockSize > g.capacity {
			g.seqOff = 0
		}
	default:
		g.off = g.rng.Int64N(g.slots) * g.spec.BlockSize
	}
	g.eng.AtSeq(g.at, g.base+g.i, g.fire, nil)
}

// arrive submits the pending arrival, then draws and schedules the next.
func (g *openGen) arrive(any) {
	g.outstanding++
	if g.outstanding > g.res.MaxOutstanding {
		g.res.MaxOutstanding = g.outstanding
	}
	q := g.free
	if q != nil {
		g.free = q.nextFree
		q.nextFree = nil
	} else {
		q = &openReq{g: g}
		q.r.OnComplete = q.done
	}
	q.issueAt = g.at
	q.r.Op, q.r.Offset, q.r.Size = g.op, g.off, g.spec.BlockSize
	g.dev.Submit(&q.r)
	if g.i++; g.i < g.spec.Count {
		g.next()
	}
}

// done records a completion, then puts the record back on the free list:
// devices call OnComplete last and keep no reference to the request.
func (q *openReq) done(r *blockdev.Request, at sim.Time) {
	g := q.g
	g.outstanding--
	g.lastDone = at
	lat := at.Sub(q.issueAt)
	rel := sim.Time(at.Sub(g.start))
	g.res.Lat.Record(lat)
	g.res.Series.Add(rel, r.Size)
	g.res.LatSeries.Add(rel, lat)
	g.res.Ops++
	g.res.Bytes += r.Size
	q.nextFree = g.free
	g.free = q
}
