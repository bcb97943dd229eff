package ssd

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/flash"
	"essdsim/internal/ftl"
	"essdsim/internal/sim"
)

// poolConfig is a 16 MiB SSD of 2 MiB superblocks and a 1 MiB write
// buffer: a few thousand small writes take it through GC.
func poolConfig() Config {
	cfg := DefaultConfig(16 << 20)
	cfg.Flash.Channels = 2
	cfg.Flash.PagesPerBlock = 16
	cfg.FTL.Overprovision = 0.10
	cfg.FTL.WriteBufferBytes = 1 << 20
	cfg.FTL.GCStreams = 4
	return cfg
}

// outcome is everything observable about one mixed run.
type outcome struct {
	host  Counters
	ftl   ftl.Counters
	flash flash.Counters
	lat   []sim.Duration // per request, in completion order
	util  float64
	free  int
	end   sim.Time
}

func (o outcome) equal(p outcome) bool {
	return o.host == p.host && o.ftl == p.ftl && o.flash == p.flash &&
		slices.Equal(o.lat, p.lat) && o.util == p.util && o.free == p.free && o.end == p.end
}

// runUntil steps eng until a sentinel event at t fires, leaving the
// clock at t with later events pending.
func runUntil(eng *sim.Engine, t sim.Time) {
	reached := false
	eng.At(t, func() { reached = true })
	for !reached && eng.Step() {
	}
}

// mixedRun drives ops random 4-32 KiB writes, reads, trims and flushes
// at queue depth 8 on s and returns what it observed. With stop > 0 it abandons
// the run at that simulated time, leaving pages pending in the buffer and
// units in flight; otherwise it runs to idle and flushes.
func mixedRun(s *SSD, seed uint64, ops int, stop sim.Time) outcome {
	eng := s.Engine()
	rng := sim.NewRNG(seed, 77)
	pages := s.FTL().UserLPNs()
	var o outcome
	issued := 0
	var submit func()
	submit = func() {
		if issued == ops {
			return
		}
		issued++
		r := &blockdev.Request{
			Op:     blockdev.Write,
			Offset: rng.Int64N(pages-8) * 4096,
			Size:   (1 + rng.Int64N(8)) * 4096,
			OnComplete: func(r *blockdev.Request, at sim.Time) {
				o.lat = append(o.lat, r.Latency(at))
				submit()
			},
		}
		switch {
		case issued%64 == 0:
			// Flushes drain partial units, leaving never-written slots
			// in closed superblocks for GC to skip.
			r.Op, r.Offset, r.Size = blockdev.Flush, 0, 0
		case issued%16 == 0:
			r.Op = blockdev.Trim
		case issued%3 == 0:
			r.Op = blockdev.Read
		}
		s.Submit(r)
	}
	for i := 0; i < 8; i++ {
		submit()
	}
	if stop > 0 {
		runUntil(eng, stop)
	} else {
		eng.Run()
		s.Submit(&blockdev.Request{Op: blockdev.Flush, OnComplete: func(r *blockdev.Request, at sim.Time) {
			o.lat = append(o.lat, r.Latency(at))
		}})
		eng.Run()
	}
	o.host, o.ftl, o.flash = s.Counters(), s.FTL().Counters(), s.FlashCounters()
	o.util, o.free, o.end = s.FTL().Utilization(), s.FTL().FreeSuperblocks(), eng.Now()
	return o
}

// reuseRun dirties an SSD with an abandoned run of its own seed, releases
// it, then measures the reference workload on the next SSD built.
func reuseRun(t *testing.T, dirtySeed uint64) outcome {
	d := New(sim.NewEngine(), poolConfig(), sim.NewRNG(dirtySeed, 1))
	d.Precondition(0.9, true)
	dirty := mixedRun(d, dirtySeed, 4000, sim.Time(30*sim.Millisecond))
	if dirty.ftl.GCVictims == 0 || dirty.host.Trims == 0 || d.FTL().BufferBytes() == 0 {
		t.Errorf("dirtying run (seed %d) left no GC, trim or buffered residue: %+v", dirtySeed, dirty.ftl)
	}
	d.ReleaseResources()
	s := New(sim.NewEngine(), poolConfig(), sim.NewRNG(5, 5))
	defer s.ReleaseResources()
	return mixedRun(s, 9, 3000, 0)
}

// referenceRun measures the reference workload on an SSD built from an
// empty pool: two collections drop every pooled item.
func referenceRun(t *testing.T) outcome {
	t.Helper()
	runtime.GC()
	runtime.GC()
	s := New(sim.NewEngine(), poolConfig(), sim.NewRNG(5, 5))
	defer s.ReleaseResources()
	ref := mixedRun(s, 9, 3000, 0)
	if ref.ftl.GCVictims == 0 || ref.ftl.BufferCoalesced == 0 || ref.host.Trims == 0 || ref.flash.PageReads == 0 {
		t.Fatalf("reference run too gentle to expose residue: %+v %+v %+v", ref.host, ref.ftl, ref.flash)
	}
	return ref
}

// TestPoolNoResidue checks that an SSD built on address state released
// by a used one (random writes past GC, trims, pages left pending and in
// flight) behaves exactly like one built from an empty pool.
func TestPoolNoResidue(t *testing.T) {
	ref := referenceRun(t)
	for seed := uint64(1); seed <= 3; seed++ {
		if got := reuseRun(t, seed); !got.equal(ref) {
			t.Fatalf("after releasing a used SSD (seed %d): %+v %+v util %v free %d end %v; "+
				"from an empty pool: %+v %+v util %v free %d end %v",
				seed, got.host, got.ftl, got.util, got.free, got.end,
				ref.host, ref.ftl, ref.util, ref.free, ref.end)
		}
	}
}

// TestPoolNoResidueConcurrent runs the reuse check from several goroutines
// at once, as expgrid workers do, against the serial reference.
func TestPoolNoResidueConcurrent(t *testing.T) {
	ref := referenceRun(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); i < 2; i++ {
				if got := reuseRun(t, seed+10*i); !got.equal(ref) {
					t.Errorf("worker seed %d: reused SSD differs from the serial reference", seed+10*i)
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}

// TestPoolUseAfterReleasePanics checks that a released SSD panics on any
// I/O or address access rather than touching state a later SSD may own,
// while its counters and engine stay readable.
func TestPoolUseAfterReleasePanics(t *testing.T) {
	s := New(sim.NewEngine(), poolConfig(), sim.NewRNG(5, 5))
	mixedRun(s, 3, 200, 0)
	want := s.Counters()
	s.ReleaseResources()
	if s.Counters() != want || s.Engine() == nil || s.FlashCounters().UnitPrograms == 0 {
		t.Fatal("counters or engine lost by ReleaseResources")
	}
	for name, use := range map[string]func(){
		"Precondition": func() { s.Precondition(0.5, false) },
		"FTL().Mapped": func() { s.FTL().Mapped(0) },
		"Write":        func() { s.Submit(&blockdev.Request{Op: blockdev.Write, Size: 4096}); s.Engine().Run() },
		"Read":         func() { s.Submit(&blockdev.Request{Op: blockdev.Read, Size: 4096}); s.Engine().Run() },
		"Trim":         func() { s.Submit(&blockdev.Request{Op: blockdev.Trim, Size: 4096}); s.Engine().Run() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after ReleaseResources did not panic", name)
				}
			}()
			use()
		}()
	}
}
