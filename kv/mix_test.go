package kv

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// mixTenantOn builds one tenant with an LSM engine on a fresh device.
func mixTenantOn(t *testing.T, eng *sim.Engine, name string, spec MixSpec) MixTenant {
	t.Helper()
	dev, err := profilesDev(eng, name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLSMConfig()
	cfg.MemtableBytes = 64 << 10
	cfg.L0CompactTrigger = 2
	return MixTenant{Name: name, Engine: NewLSM(dev, cfg), Spec: spec}
}

func baseMixSpec(seed uint64) MixSpec {
	return MixSpec{
		Ops:        400,
		ValueSize:  1024,
		ReadFrac:   0.5,
		RatePerSec: 20000,
		KeySpace:   1 << 12,
		ZipfTheta:  0.9,
		Seed:       seed,
	}
}

func TestMixSpecValidate(t *testing.T) {
	good := baseMixSpec(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*MixSpec)
	}{
		{"zero ops", func(s *MixSpec) { s.Ops = 0 }},
		{"bad value size", func(s *MixSpec) { s.ValueSize = 0 }},
		{"read frac high", func(s *MixSpec) { s.ReadFrac = 1.5 }},
		{"read frac negative", func(s *MixSpec) { s.ReadFrac = -0.1 }},
		{"zero rate", func(s *MixSpec) { s.RatePerSec = 0 }},
		{"theta too big", func(s *MixSpec) { s.ZipfTheta = 1 }},
		{"theta negative", func(s *MixSpec) { s.ZipfTheta = -0.5 }},
		{"rate NaN", func(s *MixSpec) { s.RatePerSec = math.NaN() }},
		{"rate +Inf", func(s *MixSpec) { s.RatePerSec = math.Inf(1) }},
		{"theta NaN", func(s *MixSpec) { s.ZipfTheta = math.NaN() }},
		{"theta +Inf", func(s *MixSpec) { s.ZipfTheta = math.Inf(1) }},
	}
	for _, c := range cases {
		s := good
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted %+v", c.name, s)
		}
	}
}

func TestRunMixConservation(t *testing.T) {
	eng := sim.NewEngine()
	tenants := []MixTenant{
		mixTenantOn(t, eng, "a", baseMixSpec(11)),
		mixTenantOn(t, eng, "b", baseMixSpec(12)),
	}
	res := RunMix(eng, tenants)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	for i, r := range res {
		if r.Name != tenants[i].Name {
			t.Errorf("result %d name %q, want %q (tenant order)", i, r.Name, tenants[i].Name)
		}
		if r.Ops != 400 {
			t.Errorf("%s: %d acks, want all 400 ops", r.Name, r.Ops)
		}
		if r.Puts+r.Gets != r.Ops {
			t.Errorf("%s: puts %d + gets %d != ops %d", r.Name, r.Puts, r.Gets, r.Ops)
		}
		if r.Stats.Puts != r.Puts || r.Stats.Gets != r.Gets {
			t.Errorf("%s: engine saw %d/%d ops, driver issued %d/%d",
				r.Name, r.Stats.Puts, r.Stats.Gets, r.Puts, r.Gets)
		}
		if r.UserBytes != int64(r.Puts)*1024 || r.Stats.UserBytes != r.UserBytes {
			t.Errorf("%s: user bytes %d (engine %d), want %d",
				r.Name, r.UserBytes, r.Stats.UserBytes, int64(r.Puts)*1024)
		}
		if r.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v", r.Name, r.Elapsed)
		}
		if got := r.Lat.Count(); got != r.Ops {
			t.Errorf("%s: latency histogram holds %d samples, want %d", r.Name, got, r.Ops)
		}
	}
}

func TestRunMixDeterministic(t *testing.T) {
	run := func() []byte {
		eng := sim.NewEngine()
		res := RunMix(eng, []MixTenant{
			mixTenantOn(t, eng, "a", baseMixSpec(21)),
			mixTenantOn(t, eng, "b", baseMixSpec(22)),
		})
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("two identical mixes differ:\n%s\n%s", a, b)
	}
}

func TestRunMixReadFracExtremes(t *testing.T) {
	eng := sim.NewEngine()
	pure := baseMixSpec(31)
	pure.ReadFrac = 0
	lookup := baseMixSpec(32)
	lookup.ReadFrac = 1
	res := RunMix(eng, []MixTenant{
		mixTenantOn(t, eng, "writer", pure),
		mixTenantOn(t, eng, "reader", lookup),
	})
	if res[0].Gets != 0 || res[0].Puts != 400 {
		t.Errorf("pure-ingest tenant did %d puts, %d gets", res[0].Puts, res[0].Gets)
	}
	if res[1].Puts != 0 || res[1].Gets != 400 {
		t.Errorf("pure-lookup tenant did %d puts, %d gets", res[1].Puts, res[1].Gets)
	}
}

func TestRunMixArrivals(t *testing.T) {
	for _, arr := range []workload.Arrival{workload.Uniform, workload.Poisson, workload.Bursty} {
		eng := sim.NewEngine()
		spec := baseMixSpec(41)
		spec.Arrival = arr
		res := RunMix(eng, []MixTenant{mixTenantOn(t, eng, "t", spec)})
		if res[0].Ops != spec.Ops {
			t.Errorf("%s: %d of %d ops acked", arr, res[0].Ops, spec.Ops)
		}
	}
}

func TestRunMixPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("no tenants", func() { RunMix(sim.NewEngine(), nil) })
	expectPanic("nil engine", func() {
		RunMix(sim.NewEngine(), []MixTenant{{Name: "x"}})
	})
	expectPanic("foreign device", func() {
		eng := sim.NewEngine()
		other := sim.NewEngine()
		tn := mixTenantOn(t, other, "x", baseMixSpec(1))
		RunMix(eng, []MixTenant{tn})
	})
	expectPanic("invalid spec", func() {
		eng := sim.NewEngine()
		tn := mixTenantOn(t, eng, "x", baseMixSpec(1))
		tn.Spec.Ops = 0
		RunMix(eng, []MixTenant{tn})
	})
}

// TestLSMGetReadAmpAcrossLevels drives the LSM deep enough to populate
// several levels and checks the read path's accounting: a deep tree costs
// more device probes per miss than a shallow one (L0 tables + one per
// deeper non-empty level), every get is classified as a memtable/resident
// hit or a miss, and misses are what pay device reads.
func TestLSMGetReadAmpAcrossLevels(t *testing.T) {
	load := func(puts uint64) *LSM {
		eng, dev := newDev(t, "essd2")
		cfg := DefaultLSMConfig()
		cfg.MemtableBytes = 32 << 10
		cfg.L0CompactTrigger = 2
		l := NewLSM(dev, cfg)
		done := 0
		for i := uint64(0); i < puts; i++ {
			l.Put(i, 1024, func() { done++ })
		}
		eng.Run()
		drained := false
		l.Barrier(func() { drained = true })
		eng.Run()
		if !drained || done != int(puts) {
			t.Fatalf("load(%d): drained=%v acks=%d", puts, drained, done)
		}
		// Read back uniformly and drain the issued probe I/O.
		for i := uint64(0); i < 500; i++ {
			l.Get(i*7, func() {})
		}
		eng.Run()
		return l
	}
	shallow := load(64)  // one flush: only L0 populated
	deep := load(20_000) // many flushes and compactions: several levels
	for name, l := range map[string]*LSM{"shallow": shallow, "deep": deep} {
		s := l.Stats()
		if s.Gets != 500 {
			t.Fatalf("%s: %d gets recorded", name, s.Gets)
		}
		if s.CacheHits+s.CacheMisses != s.Gets {
			t.Errorf("%s: hits %d + misses %d != gets %d", name, s.CacheHits, s.CacheMisses, s.Gets)
		}
		if s.CacheMisses > 0 && s.GetReads < s.CacheMisses {
			t.Errorf("%s: %d misses but only %d get reads", name, s.CacheMisses, s.GetReads)
		}
	}
	ds, ss := deep.Stats(), shallow.Stats()
	if ds.Compactions == 0 {
		t.Fatal("deep load triggered no compactions")
	}
	if ds.ReadAmp() <= ss.ReadAmp() {
		t.Errorf("read amp did not grow with depth: shallow %.2f, deep %.2f",
			ss.ReadAmp(), ds.ReadAmp())
	}
	shallow.Release()
	deep.Release()
}

// TestPageStoreGetHitMissAccounting pins the page store's read-path
// bookkeeping: a get of a cached page completes synchronously as a cache
// hit with no device traffic; a get of an uncached page is a miss that
// pays exactly one page-sized device read.
func TestPageStoreGetHitMissAccounting(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	cfg := DefaultPageStoreConfig(dev)
	cfg.CachePages = 4
	p := NewPageStore(dev, cfg)
	// Install key 1's page in the cache via a put.
	acked := false
	p.Put(1, 512, func() { acked = true })
	eng.Run()
	if !acked {
		t.Fatal("put did not ack")
	}
	base := p.Stats()

	hit := false
	p.Get(1, func() { hit = true })
	if !hit {
		t.Fatal("cached get did not complete synchronously")
	}
	s := p.Stats()
	if s.CacheHits != base.CacheHits+1 || s.CacheMisses != base.CacheMisses {
		t.Errorf("hit accounting: hits %d->%d misses %d->%d",
			base.CacheHits, s.CacheHits, base.CacheMisses, s.CacheMisses)
	}
	if s.DeviceReads != base.DeviceReads || s.GetReads != base.GetReads {
		t.Errorf("cached get paid device I/O: reads %d->%d", base.DeviceReads, s.DeviceReads)
	}

	// Find a key on a different page: its get must miss.
	miss := uint64(2)
	for p.pageOf(miss) == p.pageOf(1) {
		miss++
	}
	missAcked := false
	p.Get(miss, func() { missAcked = true })
	eng.Run()
	if !missAcked {
		t.Fatal("missing get did not ack after drain")
	}
	s2 := p.Stats()
	if s2.CacheMisses != s.CacheMisses+1 || s2.GetReads != s.GetReads+1 {
		t.Errorf("miss accounting: misses %d->%d get reads %d->%d",
			s.CacheMisses, s2.CacheMisses, s.GetReads, s2.GetReads)
	}
	if page := int64(dev.BlockSize()); s2.DeviceReads != s.DeviceReads+1 || s2.DeviceReadBytes != s.DeviceReadBytes+page {
		t.Errorf("miss device cost: reads %d->%d bytes %d->%d (page %d)",
			s.DeviceReads, s2.DeviceReads, s.DeviceReadBytes, s2.DeviceReadBytes, page)
	}
	p.Release()
}

// TestPutGetStatsConservationProperty interleaves random puts and gets on
// both engine designs and checks the invariants that must hold for any
// interleaving: every op acks exactly once, the engine's counters match
// the issued ops, read-path classification partitions the gets, and
// amplification accounting stays self-consistent. Run under -race it also
// certifies the single-threaded engines do not share hidden state.
func TestPutGetStatsConservationProperty(t *testing.T) {
	build := func(which string, eng *sim.Engine) Engine {
		dev, err := profilesDev(eng, which)
		if err != nil {
			t.Fatal(err)
		}
		switch which {
		case "lsm":
			cfg := DefaultLSMConfig()
			cfg.MemtableBytes = 32 << 10
			cfg.L0CompactTrigger = 2
			return NewLSM(dev, cfg)
		default:
			return NewPageStore(dev, DefaultPageStoreConfig(dev))
		}
	}
	for _, which := range []string{"lsm", "pagestore"} {
		for trial := 0; trial < 8; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)*7919 + 13))
			eng := sim.NewEngine()
			e := build(which, eng)
			var puts, gets, acks, userBytes int64
			ops := 200 + rng.Intn(400)
			for i := 0; i < ops; i++ {
				key := rng.Uint64() % 4096
				if rng.Intn(2) == 0 {
					size := int64(128 + rng.Intn(1024))
					puts++
					userBytes += size
					e.Put(key, size, func() { acks++ })
				} else {
					gets++
					e.Get(key, func() { acks++ })
				}
				if rng.Intn(16) == 0 {
					eng.Run() // vary how much work is in flight per batch
				}
			}
			eng.Run()
			drained := false
			e.Barrier(func() { drained = true })
			eng.Run()
			if !drained {
				t.Fatalf("%s trial %d: engine did not drain", which, trial)
			}
			s := e.Stats()
			if acks != int64(ops) {
				t.Fatalf("%s trial %d: %d acks for %d ops", which, trial, acks, ops)
			}
			if int64(s.Puts) != puts || int64(s.Gets) != gets {
				t.Fatalf("%s trial %d: engine counted %d/%d, issued %d/%d",
					which, trial, s.Puts, s.Gets, puts, gets)
			}
			if s.UserBytes != userBytes {
				t.Fatalf("%s trial %d: user bytes %d, want %d", which, trial, s.UserBytes, userBytes)
			}
			if s.CacheHits+s.CacheMisses != s.Gets {
				t.Fatalf("%s trial %d: hits %d + misses %d != gets %d",
					which, trial, s.CacheHits, s.CacheMisses, s.Gets)
			}
			if s.GetReads > s.DeviceReads {
				t.Fatalf("%s trial %d: get reads %d exceed device reads %d",
					which, trial, s.GetReads, s.DeviceReads)
			}
			if puts > 0 && s.WriteAmp() < 1 {
				t.Fatalf("%s trial %d: write amp %.3f < 1 after drain", which, trial, s.WriteAmp())
			}
			if r, ok := e.(interface{ Release() }); ok {
				r.Release()
			}
		}
	}
}

// profilesDev builds a preconditioned essd2 device on eng; the name only
// labels the caller's intent.
func profilesDev(eng *sim.Engine, _ string) (blockdev.Device, error) {
	dev, err := profiles.ByName("essd2", eng, sim.NewRNG(77, 77^0x4))
	if err != nil {
		return nil, err
	}
	preconditionForWrites(dev)
	return dev, nil
}
