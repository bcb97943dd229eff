package kv

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
	"essdsim/internal/workload"
)

// startMixEager is the reference KV generator: it builds its own Zipf
// table, draws every arrival and schedules it with At before the engine
// runs. startMix must reproduce it event for event.
func startMixEager(eng *sim.Engine, t MixTenant) func() *MixResult {
	spec := t.Spec
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.KeySpace == 0 {
		spec.KeySpace = 1 << 20
	}
	rng := sim.NewRNG(spec.Seed^0x6b1d, spec.Seed+0x29)
	zipf := workload.NewZipf(int64(spec.KeySpace), spec.ZipfTheta)
	res := &MixResult{
		Name:   t.Name,
		Engine: t.Engine.Name(),
		Device: t.Engine.Device().Name(),
		Lat:    stats.NewHistogram(),
	}
	start := eng.Now()
	lastDone := start
	outstanding := 0
	gap := sim.Duration(float64(sim.Second) / spec.RatePerSec)
	perSecond := int(spec.RatePerSec)
	if perSecond < 1 {
		perSecond = 1
	}
	var at sim.Duration
	for i := uint64(0); i < spec.Ops; i++ {
		switch spec.Arrival {
		case workload.Uniform:
			at = sim.Duration(i) * gap
		case workload.Poisson:
			if i > 0 {
				at += sim.Duration(-math.Log(1-rng.Float64()) * float64(gap))
			}
		case workload.Bursty:
			at = sim.Duration(i/uint64(perSecond)) * sim.Second
		}
		key := uint64(zipf.Next(rng))
		isGet := rng.Float64() < spec.ReadFrac
		issueAt := start.Add(at)
		eng.At(issueAt, func() {
			outstanding++
			if outstanding > res.MaxOutstanding {
				res.MaxOutstanding = outstanding
			}
			done := func() {
				outstanding--
				now := eng.Now()
				lastDone = now
				res.Lat.Record(now.Sub(issueAt))
				res.Ops++
			}
			if isGet {
				res.Gets++
				t.Engine.Get(key, done)
			} else {
				res.Puts++
				res.UserBytes += spec.ValueSize
				t.Engine.Put(key, spec.ValueSize, done)
			}
		})
	}
	return func() *MixResult {
		res.Elapsed = lastDone.Sub(start)
		res.Stats = t.Engine.Stats()
		return res
	}
}

// runMixEager is RunMix on the reference generator.
func runMixEager(eng *sim.Engine, tenants []MixTenant) []*MixResult {
	finishers := make([]func() *MixResult, len(tenants))
	for i, t := range tenants {
		finishers[i] = startMixEager(eng, t)
	}
	eng.Run()
	for _, t := range tenants {
		t.Engine.Barrier(func() {})
	}
	eng.Run()
	out := make([]*MixResult, len(tenants))
	for i, fin := range finishers {
		out[i] = fin()
	}
	return out
}

// loggedDevice records every device request with its submit time and
// tenant in a log shared by all tenants of one engine.
type loggedDevice struct {
	blockdev.Device
	tenant int
	log    *[]string
}

func (d *loggedDevice) Submit(r *blockdev.Request) {
	*d.log = append(*d.log, fmt.Sprint(d.Device.Engine().Now(), d.tenant, r.Op, r.Offset, r.Size))
	d.Device.Submit(r)
}

// TestKVMixLazyMatchesEager checks the lazy KV generators and the shared
// per-cell Zipf tables against the eager reference, which builds a table
// per tenant: LSM and page-store tenants on one engine, every arrival
// shape, shared and distinct (key space, skew) pairs, a defaulted key
// space and a fractional rate. Device requests, results, the step count
// and the final clock must match.
func TestKVMixLazyMatchesEager(t *testing.T) {
	specs := func(arr workload.Arrival) []MixSpec {
		a := baseMixSpec(51)
		b := baseMixSpec(52) // same table as a
		b.ReadFrac = 0.8
		c := baseMixSpec(53)
		c.KeySpace, c.ZipfTheta, c.RatePerSec = 0, 0, 7777.5
		d := baseMixSpec(54)
		d.ZipfTheta = 0.99
		out := []MixSpec{a, b, c, d}
		for i := range out {
			out[i].Arrival = arr
		}
		return out
	}
	run := func(lazy bool, ss []MixSpec) (string, []string, uint64, sim.Time) {
		eng := sim.NewEngine()
		var log []string
		tenants := make([]MixTenant, len(ss))
		for i, s := range ss {
			dev, err := profilesDev(eng, "t")
			if err != nil {
				t.Fatal(err)
			}
			dev = &loggedDevice{dev, i, &log}
			var e Engine
			if i%2 == 0 {
				cfg := DefaultLSMConfig()
				cfg.MemtableBytes = 64 << 10
				cfg.L0CompactTrigger = 2
				e = NewLSM(dev, cfg)
			} else {
				e = NewPageStore(dev, DefaultPageStoreConfig(dev))
			}
			tenants[i] = MixTenant{Name: fmt.Sprint("kv", i), Engine: e, Spec: s}
		}
		var res []*MixResult
		if lazy {
			res = RunMix(eng, tenants)
		} else {
			res = runMixEager(eng, tenants)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw), log, eng.Steps(), eng.Now()
	}
	for _, arr := range []workload.Arrival{workload.Uniform, workload.Poisson, workload.Bursty} {
		all := specs(arr)
		for n := 1; n <= len(all); n++ {
			ss := all[:n]
			want, wantLog, wantSteps, wantNow := run(false, ss)
			got, gotLog, gotSteps, gotNow := run(true, ss)
			switch {
			case len(wantLog) == 0:
				t.Fatalf("%s, %d tenants: no device requests", arr, n)
			case !slices.Equal(gotLog, wantLog):
				t.Errorf("%s, %d tenants: device requests differ", arr, n)
			case got != want:
				t.Errorf("%s, %d tenants: results differ:\n%s\n%s", arr, n, got, want)
			case gotSteps != wantSteps || gotNow != wantNow:
				t.Errorf("%s, %d tenants: steps %d now %d, eager %d and %d", arr, n, gotSteps, gotNow, wantSteps, wantNow)
			}
		}
	}
}
