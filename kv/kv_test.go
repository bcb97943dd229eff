package kv

import (
	"testing"
	"testing/quick"

	"essdsim/internal/blockdev"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
)

// newNamedDev builds a profile device exactly the way the root package's
// essdsim.NewDevice does (same RNG derivation), so fixed-seed results here
// match runs driven through the public API. kv's tests cannot import the
// root package: expgrid (which the root package wraps) imports kv, and an
// in-package test importing essdsim would close that cycle.
func newNamedDev(name string, seed uint64) (*sim.Engine, blockdev.Device, error) {
	eng := sim.NewEngine()
	dev, err := profiles.ByName(name, eng, sim.NewRNG(seed, seed^0x4))
	return eng, dev, err
}

// preconditionForWrites half-fills the device — the same GC-free write
// window expgrid.Precondition(dev, forWrites=true) sets up.
func preconditionForWrites(dev blockdev.Device) {
	switch d := dev.(type) {
	case interface{ Precondition(float64) }:
		d.Precondition(0.5)
	case interface{ Precondition(float64, bool) }:
		d.Precondition(0.5, false)
	}
}

func newDev(t *testing.T, name string) (*sim.Engine, blockdev.Device) {
	t.Helper()
	eng, dev, err := newNamedDev(name, 77)
	if err != nil {
		t.Fatal(err)
	}
	preconditionForWrites(dev)
	return eng, dev
}

func TestRingAllocator(t *testing.T) {
	r := newRing(0, 1<<20, 4096)
	a := r.alloc(256 << 10)
	b := r.alloc(256 << 10)
	if a != 0 || b != 256<<10 {
		t.Fatalf("sequential allocs: %d %d", a, b)
	}
	r.alloc(256 << 10)
	r.alloc(128 << 10)
	// 896K used; a 256K request must wrap to 0.
	if off := r.alloc(256 << 10); off != 0 {
		t.Fatalf("wrap alloc at %d, want 0", off)
	}
}

func TestRingAllocatorOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized extent accepted")
		}
	}()
	newRing(0, 1<<20, 4096).alloc(2 << 20)
}

func TestAlign(t *testing.T) {
	if align(1, 4096) != 4096 || align(4096, 4096) != 4096 || align(4097, 4096) != 8192 {
		t.Fatal("align wrong")
	}
}

func TestLSMPutAcksFromMemtable(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	l := NewLSM(dev, DefaultLSMConfig())
	acked := false
	l.Put(1, 1024, func() { acked = true })
	if !acked {
		t.Fatal("put below memtable threshold must ack synchronously")
	}
	eng.Run()
	if l.Stats().Puts != 1 || l.Stats().UserBytes != 1024 {
		t.Fatalf("stats %+v", l.Stats())
	}
}

func TestLSMFlushOnMemtableFull(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	cfg := DefaultLSMConfig()
	cfg.MemtableBytes = 64 << 10
	l := NewLSM(dev, cfg)
	for i := 0; i < 65; i++ {
		l.Put(uint64(i), 1024, func() {})
	}
	eng.Run()
	st := l.Stats()
	if st.Flushes == 0 {
		t.Fatal("memtable never flushed")
	}
	if st.DeviceWriteBytes < 64<<10 {
		t.Fatalf("flush wrote %d bytes", st.DeviceWriteBytes)
	}
}

func TestLSMBarrierDrainsEverything(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	cfg := DefaultLSMConfig()
	cfg.MemtableBytes = 32 << 10
	l := NewLSM(dev, cfg)
	for i := 0; i < 100; i++ {
		l.Put(uint64(i), 4096, func() {})
	}
	done := false
	l.Barrier(func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("barrier never fired")
	}
	if l.memUsed != 0 {
		t.Fatalf("memtable not drained: %d", l.memUsed)
	}
}

func TestLSMCompactionTriggersAndAmplifies(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	cfg := DefaultLSMConfig()
	cfg.MemtableBytes = 64 << 10
	cfg.L0CompactTrigger = 2
	l := NewLSM(dev, cfg)
	// Ingest 16 memtables' worth to force several compactions.
	res := Ingest(eng, l, 1024, 1024, 8, 1<<16, 3)
	st := res.Stats
	if st.Compactions == 0 {
		t.Fatal("no compactions")
	}
	if wa := st.WriteAmp(); wa <= 1.3 {
		t.Fatalf("leveled LSM write amplification %.2f, want > 1.3", wa)
	}
	if st.DeviceReadBytes == 0 {
		t.Fatal("compaction read nothing")
	}
}

func TestLSMBackpressureStalls(t *testing.T) {
	eng, dev := newDev(t, "pl1") // slow device: flush lags the client
	cfg := DefaultLSMConfig()
	cfg.MemtableBytes = 64 << 10
	l := NewLSM(dev, cfg)
	res := Ingest(eng, l, 4096, 1024, 32, 1<<16, 4)
	if res.Stats.Stalls == 0 {
		t.Fatal("fast client on slow device never stalled")
	}
	if res.Puts != 4096 {
		t.Fatalf("puts = %d", res.Puts)
	}
}

func TestLSMLevelAccounting(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	cfg := DefaultLSMConfig()
	cfg.MemtableBytes = 64 << 10
	cfg.L0CompactTrigger = 2
	l := NewLSM(dev, cfg)
	Ingest(eng, l, 2048, 1024, 8, 1<<16, 5)
	levels := l.LevelBytes()
	var total int64
	for _, b := range levels {
		if b < 0 {
			t.Fatalf("negative level bytes: %v", levels)
		}
		total += b
	}
	// All ingested data (rounded up per table) lives somewhere.
	if total < 2048*1024 {
		t.Fatalf("levels hold %d bytes, ingested %d", total, 2048*1024)
	}
}

func TestPageStorePutReadsThenWrites(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	cfg := DefaultPageStoreConfig(dev)
	cfg.CachePages = 0 // force misses
	p := NewPageStore(dev, cfg)
	acked := false
	p.Put(42, 512, func() { acked = true })
	if acked {
		t.Fatal("page-store put acked before device write")
	}
	eng.Run()
	if !acked {
		t.Fatal("put never acked")
	}
	st := p.Stats()
	if st.DeviceReads != 1 || st.DeviceWrites != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPageStoreCacheSkipsRead(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	cfg := DefaultPageStoreConfig(dev)
	cfg.CachePages = 16
	p := NewPageStore(dev, cfg)
	p.Put(7, 512, func() {})
	eng.Run()
	readsAfterFirst := p.Stats().DeviceReads
	p.Put(7, 512, func() {}) // same key: cached page
	eng.Run()
	if p.Stats().DeviceReads != readsAfterFirst {
		t.Fatal("cached put still read the page")
	}
	if p.Stats().DeviceWrites != 2 {
		t.Fatalf("writes = %d", p.Stats().DeviceWrites)
	}
}

func TestPageStoreCacheEviction(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	cfg := DefaultPageStoreConfig(dev)
	cfg.CachePages = 2
	p := NewPageStore(dev, cfg)
	for k := uint64(0); k < 8; k++ {
		p.Put(k, 512, func() {})
	}
	eng.Run()
	if len(p.cache) > 2 {
		t.Fatalf("cache grew to %d entries", len(p.cache))
	}
}

func TestPageStoreDeterministicPlacement(t *testing.T) {
	_, dev := newDev(t, "essd2")
	p := NewPageStore(dev, DefaultPageStoreConfig(dev))
	if p.pageOf(99) != p.pageOf(99) {
		t.Fatal("placement not deterministic")
	}
	// Spread: 1000 keys should hit many distinct pages.
	pages := map[int64]bool{}
	for k := uint64(0); k < 1000; k++ {
		pages[p.pageOf(k)] = true
	}
	if len(pages) < 900 {
		t.Fatalf("only %d distinct pages for 1000 keys", len(pages))
	}
}

func TestPageStoreOversizedValuePanics(t *testing.T) {
	_, dev := newDev(t, "essd2")
	p := NewPageStore(dev, DefaultPageStoreConfig(dev))
	defer func() {
		if recover() == nil {
			t.Fatal("oversized value accepted")
		}
	}()
	p.Put(1, 64<<10, func() {})
}

func TestIngestConservation(t *testing.T) {
	eng, dev := newDev(t, "essd2")
	p := NewPageStore(dev, DefaultPageStoreConfig(dev))
	res := Ingest(eng, p, 500, 1024, 8, 1<<12, 9)
	if res.Puts != 500 || res.UserBytes != 500*1024 {
		t.Fatalf("result %+v", res)
	}
	if res.PutsPerSec() <= 0 {
		t.Fatal("rate not positive")
	}
}

// Property: for any put sequence, the LSM's device writes are sequential
// ring extents — always block-aligned and in range — and every put acks.
func TestLSMPutsAlwaysAckProperty(t *testing.T) {
	f := func(sizes []uint16, seed uint64) bool {
		eng, dev, err := newNamedDev("essd2", seed)
		if err != nil {
			return false
		}
		cfg := DefaultLSMConfig()
		cfg.MemtableBytes = 32 << 10
		l := NewLSM(dev, cfg)
		want := 0
		got := 0
		for _, s := range sizes {
			v := int64(s%8192) + 1
			want++
			l.Put(uint64(s), v, func() { got++ })
		}
		ok := false
		l.Barrier(func() { ok = true })
		eng.Run()
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsWriteAmp(t *testing.T) {
	s := Stats{UserBytes: 100, DeviceWriteBytes: 300}
	if s.WriteAmp() != 3 {
		t.Fatalf("WA = %v", s.WriteAmp())
	}
	if (Stats{}).WriteAmp() != 0 {
		t.Fatal("empty WA")
	}
}
