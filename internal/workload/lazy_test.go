package workload

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
)

// startOpenEager is the reference open-loop generator: it draws every
// arrival and schedules it with At before the engine runs, each with its
// own closure. startOpen must reproduce it event for event.
func startOpenEager(dev blockdev.Device, spec OpenSpec) func() *OpenResult {
	if err := spec.Validate(dev); err != nil {
		panic(err)
	}
	eng := dev.Engine()
	rng := sim.NewRNG(spec.Seed^0x09e4, spec.Seed+0x11)
	if spec.SampleInterval <= 0 {
		spec.SampleInterval = 10 * sim.Millisecond
	}
	newLatSeries := stats.NewLatencySeries
	if spec.WindowPercentiles {
		newLatSeries = stats.NewLatencySeriesHist
	}
	res := &OpenResult{
		Spec: spec, Device: dev.Name(), Lat: stats.NewHistogram(),
		Series:    stats.NewThroughputSeries(spec.SampleInterval),
		LatSeries: newLatSeries(spec.SampleInterval),
	}
	capacity := dev.Capacity()
	slots := capacity / spec.BlockSize
	start := eng.Now()
	gap := sim.Duration(float64(sim.Second) / spec.RatePerSec)
	perSecond := int(spec.RatePerSec)
	if perSecond < 1 {
		perSecond = 1
	}

	outstanding := 0
	lastDone := start
	var seqOff int64
	var at sim.Duration
	for i := uint64(0); i < spec.Count; i++ {
		switch spec.Arrival {
		case Uniform:
			at = sim.Duration(i) * gap
		case Poisson:
			if i > 0 {
				at += sim.Duration(-math.Log(1-rng.Float64()) * float64(gap))
			}
		case Bursty:
			at = sim.Duration(i/uint64(perSecond)) * sim.Second
		}
		op := blockdev.Read
		switch spec.Pattern {
		case RandWrite, SeqWrite:
			op = blockdev.Write
		case Mixed:
			if rng.Float64() < spec.WriteRatio {
				op = blockdev.Write
			}
		}
		var off int64
		switch spec.Pattern {
		case SeqWrite, SeqRead:
			off = seqOff
			seqOff += spec.BlockSize
			if seqOff+spec.BlockSize > capacity {
				seqOff = 0
			}
		default:
			off = rng.Int64N(slots) * spec.BlockSize
		}
		issueAt := start.Add(at)
		opC, offC := op, off
		eng.At(issueAt, func() {
			outstanding++
			if outstanding > res.MaxOutstanding {
				res.MaxOutstanding = outstanding
			}
			dev.Submit(&blockdev.Request{
				Op: opC, Offset: offC, Size: spec.BlockSize,
				OnComplete: func(r *blockdev.Request, done sim.Time) {
					outstanding--
					lastDone = done
					lat := done.Sub(issueAt)
					rel := sim.Time(done.Sub(start))
					res.Lat.Record(lat)
					res.Series.Add(rel, r.Size)
					res.LatSeries.Add(rel, lat)
					res.Ops++
					res.Bytes += r.Size
				},
			})
		})
	}
	return func() *OpenResult {
		res.Elapsed = lastDone.Sub(start)
		return res
	}
}

// runTenantsEager is RunTenants on the reference open-loop generator.
func runTenantsEager(eng *sim.Engine, tenants []Tenant) []*TenantResult {
	finishers := make([]func() *OpenResult, len(tenants))
	for i, t := range tenants {
		finishers[i] = startOpenEager(t.Dev, *t.Open)
	}
	eng.Run()
	out := make([]*TenantResult, len(tenants))
	for i, t := range tenants {
		out[i] = &TenantResult{Name: t.Name, Device: t.Dev.Name(), Open: finishers[i]()}
	}
	return out
}

// submission is one entry of a device submit log.
type submission struct {
	at     sim.Time
	tenant int
	op     blockdev.Op
	off    int64
}

// loggedDevice appends every submission, with its tenant, to a log shared
// by all tenants of one engine.
type loggedDevice struct {
	blockdev.Device
	tenant int
	log    *[]submission
}

func (d *loggedDevice) Submit(r *blockdev.Request) {
	*d.log = append(*d.log, submission{d.Device.Engine().Now(), d.tenant, r.Op, r.Offset})
	d.Device.Submit(r)
}

// mixCase is one random tenant mix for the lazy/eager differential.
// capacity picks the devices' size: small enough that sequential
// patterns wrap within a case's arrivals.
type mixCase struct {
	seed     uint64
	shape    uint8
	pattern  uint8
	capacity uint8
	rate     uint32
	count    uint16
	tenants  uint8
}

// run builds the mix on a new engine and drives it with the lazy
// generators (RunTenants) or the eager reference, returning the results,
// the submit log, the step count and the final clock.
func (c mixCase) run(lazy bool) ([]*TenantResult, []submission, uint64, sim.Time) {
	eng := sim.NewEngine()
	r := sim.NewRNG(c.seed, 0x1a2)
	n := 1 + int(c.tenants%4)
	capacity := int64(16+int(c.capacity)%64) * 8192
	var log []submission
	tenants := make([]Tenant, n)
	for k := range tenants {
		fake := newTestDevice(eng, 0)
		var dev blockdev.Device = fake
		if r.IntN(2) == 0 {
			fake = newTestDevice(eng, int64(r.IntN(40)))
			dev = &serialFake{fakeDevice: fake}
		}
		fake.capacity = capacity
		tenants[k] = Tenant{Name: fmt.Sprint("t", k), Dev: &loggedDevice{dev, k, &log}}
		tenants[k].Open = &OpenSpec{
			Pattern:    Pattern((int(c.pattern) + k) % 5),
			BlockSize:  4096 << r.IntN(2),
			WriteRatio: r.Float64(),
			// Fractional rates, below 1/s too, where Bursty issues one
			// arrival per second.
			RatePerSec: 0.25 + float64(c.rate%400000)/float64(1+r.IntN(16)),
			Arrival:    Arrival((int(c.shape) + k) % 3),
			Count:      1 + uint64(c.count%600),
			Seed:       c.seed + uint64(k),
		}
	}
	var res []*TenantResult
	if lazy {
		res = RunTenants(eng, tenants)
	} else {
		res = runTenantsEager(eng, tenants)
	}
	return res, log, eng.Steps(), eng.Now()
}

// FuzzLazyArrivalsMatchEager checks the lazy open-loop generators against
// the eager reference on 1–4 tenants sharing one engine, across arrival
// shapes, patterns, device capacities (sequential patterns wrap on the
// small ones), fractional rates and counts. Zero-latency devices complete on
// the ready ring at an arrival's own timestamp, and serial devices queue,
// so arrivals interleave with same-time events. The submit log, every
// result field, the step count and the final clock must match.
func FuzzLazyArrivalsMatchEager(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint32(5000), uint16(300), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(4), uint8(1), uint32(80000), uint16(599), uint8(1))
	f.Add(uint64(3), uint8(2), uint8(2), uint8(2), uint32(3), uint16(40), uint8(2))
	f.Add(uint64(4), uint8(1), uint8(1), uint8(0), uint32(399999), uint16(500), uint8(3))
	f.Add(uint64(5), uint8(2), uint8(3), uint8(1), uint32(0), uint16(7), uint8(3))
	f.Add(uint64(6), uint8(0), uint8(4), uint8(2), uint32(250000), uint16(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, shape, pattern, capacity uint8, rate uint32, count uint16, tenants uint8) {
		c := mixCase{seed, shape, pattern, capacity, rate, count, tenants}
		wantRes, wantLog, wantSteps, wantNow := c.run(false)
		gotRes, gotLog, gotSteps, gotNow := c.run(true)
		if !slices.Equal(gotLog, wantLog) {
			t.Fatalf("%+v: submit logs differ (%d lazy vs %d eager submissions)", c, len(gotLog), len(wantLog))
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("%+v: results differ", c)
		}
		if gotSteps != wantSteps || gotNow != wantNow {
			t.Fatalf("%+v: steps %d now %d, eager steps %d now %d", c, gotSteps, gotNow, wantSteps, wantNow)
		}
	})
}

// TestOpenLoopPendingPerTenant pins the O(tenants) property: with a
// 200k-arrival generator and a smaller one on one engine, a daemon probe
// never sees more pending events than one per unfinished generator, one
// per in-flight request and the probe itself.
func TestOpenLoopPendingPerTenant(t *testing.T) {
	eng := sim.NewEngine()
	devs := []*fakeDevice{newTestDevice(eng, 5), newTestDevice(eng, 0)}
	specs := []OpenSpec{
		{Pattern: RandWrite, BlockSize: 4096, RatePerSec: 1e6, Arrival: Poisson, Count: 200_000, Seed: 1},
		{Pattern: Mixed, WriteRatio: 0.3, BlockSize: 4096, RatePerSec: 2e5, Arrival: Bursty, Count: 30_000, Seed: 2},
	}
	tenants := make([]Tenant, len(specs))
	for k := range specs {
		tenants[k] = Tenant{Name: fmt.Sprint("t", k), Dev: devs[k], Open: &specs[k]}
	}
	var ticks, peak int
	var probe func()
	probe = func() {
		ticks++
		bound := 1 // the probe itself
		for k, d := range devs {
			bound += d.inflight
			if uint64(d.reads+d.writes) < specs[k].Count {
				bound++
			}
		}
		if p := eng.Pending(); p > bound {
			t.Fatalf("t=%v: %d events pending, bound %d", eng.Now(), p, bound)
		} else if p > peak {
			peak = p
		}
		if eng.Live() > 0 {
			eng.ScheduleDaemon(50*sim.Microsecond, probe)
		}
	}
	eng.ScheduleDaemon(0, probe)
	res := RunTenants(eng, tenants)
	if res[0].Open.Ops != 200_000 || res[1].Open.Ops != 30_000 {
		t.Fatalf("ops %d and %d", res[0].Open.Ops, res[1].Open.Ops)
	}
	if ticks < 1000 {
		t.Fatalf("probe ticked %d times", ticks)
	}
	t.Logf("%d probe ticks, peak %d pending", ticks, peak)
}
