package expgrid

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"essdsim/internal/essd"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/kv"
)

// kvHook builds a tiny two-tenant shared-backend KV mix from the cell
// coordinates: each tenant an engine of the cell's design on its own
// volume, driven by a short zipfian read/write stream.
func kvHook(c Cell) (*sim.Engine, []kv.MixTenant) {
	eng := sim.AcquireEngine()
	rng := sim.NewRNG(c.Seed, c.Seed^0x91)
	bcfg, vcfg := profiles.ESSD1Config().Split()
	be := essd.NewBackend(eng, bcfg, rng.Derive("backend"))
	var tenants []kv.MixTenant
	for i := 0; i < 2; i++ {
		cfg := vcfg
		cfg.Name = "kv"
		vol := be.Attach(cfg, rng)
		vol.Precondition(1)
		var e kv.Engine
		if c.KVEngine == "lsm" {
			lcfg := kv.DefaultLSMConfig()
			lcfg.MemtableBytes = 64 << 10
			lcfg.L0CompactTrigger = 2
			e = kv.NewLSM(vol, lcfg)
		} else {
			e = kv.NewPageStore(vol, kv.DefaultPageStoreConfig(vol))
		}
		tenants = append(tenants, kv.MixTenant{Name: cfg.Name, Engine: e, Spec: kv.MixSpec{
			Ops: 150, ValueSize: c.ValueSize, ReadFrac: 0.5, RatePerSec: 10000,
			KeySpace: 1 << 10, ZipfTheta: c.KVSkew, Seed: c.Seed ^ uint64(i),
		}})
	}
	return eng, tenants
}

func kvSweep() Sweep {
	return Sweep{
		Kind:         KVMix,
		Devices:      []NamedFactory{{Name: "essd1"}},
		KVEngines:    []string{"lsm", "pagestore"},
		KVSkews:      []float64{0, 0.99},
		KVValueSizes: []int64{1024},
		KV:           kvHook,
		Seed:         5,
		Label:        "kv-test",
	}
}

// TestKVMixEnumeration checks the KV grid's shape, order, and seed
// coordinates.
func TestKVMixEnumeration(t *testing.T) {
	cells := kvSweep().Cells()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		want := KVCellSeed(5, "kv-test", "essd1", c.KVEngine, c.KVSkew, c.ValueSize)
		if c.Seed != want {
			t.Fatalf("cell %d seed not coordinate-derived", i)
		}
		if c.ValueSize != 1024 {
			t.Fatalf("cell %d value size %d", i, c.ValueSize)
		}
	}
	if cells[0].KVEngine != "lsm" || cells[2].KVEngine != "pagestore" {
		t.Fatal("engine axis not outer of skews")
	}
	if cells[0].KVSkew != 0 || cells[1].KVSkew != 0.99 {
		t.Fatal("skew axis not inner")
	}
}

// TestKVCellSeedDecorrelated checks each coordinate contributes to the
// cell seed and that seeds are stable across calls.
func TestKVCellSeedDecorrelated(t *testing.T) {
	base := KVCellSeed(5, "l", "essd1", "lsm", 0.5, 1024)
	if base != KVCellSeed(5, "l", "essd1", "lsm", 0.5, 1024) {
		t.Fatal("seed not stable")
	}
	variants := []uint64{
		KVCellSeed(6, "l", "essd1", "lsm", 0.5, 1024),
		KVCellSeed(5, "m", "essd1", "lsm", 0.5, 1024),
		KVCellSeed(5, "l", "essd2", "lsm", 0.5, 1024),
		KVCellSeed(5, "l", "essd1", "pagestore", 0.5, 1024),
		KVCellSeed(5, "l", "essd1", "lsm", 0.99, 1024),
		KVCellSeed(5, "l", "essd1", "lsm", 0.5, 4096),
	}
	seen := map[uint64]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collides", i)
		}
		seen[v] = true
	}
}

// TestKVMixParallelDeterminism checks KV cells are byte-identical at any
// worker count and return per-tenant results in tenant order.
func TestKVMixParallelDeterminism(t *testing.T) {
	r1, err := Runner{Workers: 1}.Run(context.Background(), kvSweep())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Runner{Workers: 8}.Run(context.Background(), kvSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("kv sweep differs between 1 and 8 workers")
	}
	for _, r := range r1 {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", r.Index, r.Err)
		}
		if len(r.KV) != 2 {
			t.Fatalf("cell %d has %d tenant results, want 2", r.Index, len(r.KV))
		}
		if r.KV[0].Ops != 150 || r.KV[1].Ops != 150 {
			t.Fatalf("cell %d tenants acked %d/%d ops", r.Index, r.KV[0].Ops, r.KV[1].Ops)
		}
		if r.KV[0].Engine != r.KVEngine {
			t.Fatalf("cell %d result engine %q, cell coordinate %q", r.Index, r.KV[0].Engine, r.KVEngine)
		}
		if r.Res != nil || r.Open != nil || r.Replay != nil || r.Mix != nil {
			t.Fatalf("cell %d carries non-kv measurements", r.Index)
		}
	}
}

// TestKVMixValidation checks the KV-kind validation rules.
func TestKVMixValidation(t *testing.T) {
	ok := kvSweep()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid kv sweep rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Sweep){
		"no hook":        func(s *Sweep) { s.KV = nil },
		"no engines":     func(s *Sweep) { s.KVEngines = nil },
		"empty engine":   func(s *Sweep) { s.KVEngines = []string{""} },
		"no skews":       func(s *Sweep) { s.KVSkews = nil },
		"skew too big":   func(s *Sweep) { s.KVSkews = []float64{1} },
		"skew negative":  func(s *Sweep) { s.KVSkews = []float64{-0.1} },
		"skew NaN":       func(s *Sweep) { s.KVSkews = []float64{math.NaN()} },
		"no value sizes": func(s *Sweep) { s.KVValueSizes = nil },
		"bad value size": func(s *Sweep) { s.KVValueSizes = []int64{0} },
	} {
		s := kvSweep()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: kv sweep accepted", name)
		}
	}
}

// TestKVMixCacheRoundTrip checks KV results survive the persistent cache:
// a warm re-run skips every cell, and a save/load cycle reproduces the
// measurements from disk.
func TestKVMixCacheRoundTrip(t *testing.T) {
	cache := NewCache(0)
	sw := kvSweep()
	sw.Cache = cache
	cold, err := Runner{Workers: 2}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Runner{Workers: 2}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("cell %d not served from cache", i)
		}
		warm[i].Cached = false
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Fatalf("cell %d cached result differs", i)
		}
	}
	var buf bytes.Buffer
	if err := cache.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewCache(0)
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	sw.Cache = loaded
	disk, err := Runner{Workers: 2}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range disk {
		if !disk[i].Cached {
			t.Fatalf("cell %d not served from loaded cache", i)
		}
		disk[i].Cached = false
		if !reflect.DeepEqual(cold[i], disk[i]) {
			t.Fatalf("cell %d disk-cached result differs", i)
		}
	}
}
