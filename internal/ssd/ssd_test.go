package ssd

import (
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

// newSmall builds a 256 MiB SSD for fast tests.
func newSmall(t *testing.T) (*sim.Engine, *SSD) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(256 << 20)
	return eng, New(eng, cfg, sim.NewRNG(42, 42))
}

// do submits a request and returns its completion latency after running the
// engine to idle.
func do(eng *sim.Engine, d blockdev.Device, op blockdev.Op, off, size int64) sim.Duration {
	var lat sim.Duration = -1
	d.Submit(&blockdev.Request{
		Op: op, Offset: off, Size: size,
		OnComplete: func(r *blockdev.Request, at sim.Time) { lat = r.Latency(at) },
	})
	eng.Run()
	return lat
}

func TestDeviceInterface(t *testing.T) {
	_, s := newSmall(t)
	if s.Capacity() != 256<<20 {
		t.Fatalf("capacity = %d", s.Capacity())
	}
	if s.BlockSize() != 4096 {
		t.Fatalf("block size = %d", s.BlockSize())
	}
	if s.Name() == "" {
		t.Fatal("empty name")
	}
	if s.Engine() == nil {
		t.Fatal("nil engine")
	}
}

func TestSmallWriteIsBufferFast(t *testing.T) {
	eng, s := newSmall(t)
	lat := do(eng, s, blockdev.Write, 0, 4096)
	// Buffered ack: firmware + host DMA, should be ~5-20 µs, far below the
	// flash program time (~190 µs).
	if lat <= 0 || lat > 50*sim.Microsecond {
		t.Fatalf("4K write latency = %v, want ~10µs", lat)
	}
}

func TestLargeWriteLatencyScalesWithTransfer(t *testing.T) {
	eng, s := newSmall(t)
	small := do(eng, s, blockdev.Write, 0, 4096)
	large := do(eng, s, blockdev.Write, 1<<20, 256<<10)
	// 256 KiB over 3.5 GB/s ≈ 73 µs of DMA.
	if large < small+50*sim.Microsecond {
		t.Fatalf("256K write %v not dominated by transfer (4K: %v)", large, small)
	}
	if large > 300*sim.Microsecond {
		t.Fatalf("256K write too slow: %v", large)
	}
}

func TestRandomReadPaysFlashLatency(t *testing.T) {
	eng, s := newSmall(t)
	s.Precondition(1.0, true)
	lat := do(eng, s, blockdev.Read, 4096*12345, 4096)
	// tR 40µs + transfer: expect ~50-80 µs.
	if lat < 40*sim.Microsecond || lat > 120*sim.Microsecond {
		t.Fatalf("4K random read latency = %v, want ~60µs", lat)
	}
}

func TestSequentialReadsHitPrefetch(t *testing.T) {
	eng, s := newSmall(t)
	s.Precondition(1.0, false)
	// Issue a sequential run; after the detector warms up, reads become
	// cache hits at ~DMA latency.
	var last sim.Duration
	for i := int64(0); i < 64; i++ {
		last = do(eng, s, blockdev.Read, i*4096, 4096)
	}
	if last > 30*sim.Microsecond {
		t.Fatalf("steady sequential read latency = %v, want cache-hit speed", last)
	}
	c := s.Counters()
	if c.CacheHits == 0 || c.Prefetches == 0 {
		t.Fatalf("prefetcher inactive: %+v", c)
	}
}

func TestReadUnwrittenIsFast(t *testing.T) {
	eng, s := newSmall(t)
	lat := do(eng, s, blockdev.Read, 0, 4096)
	if lat > 30*sim.Microsecond {
		t.Fatalf("unmapped read latency = %v", lat)
	}
}

func TestWriteInvalidatesReadCache(t *testing.T) {
	eng, s := newSmall(t)
	s.Precondition(1.0, false)
	for i := int64(0); i < 16; i++ {
		do(eng, s, blockdev.Read, i*4096, 4096) // warm the prefetcher
	}
	hitsBefore := s.Counters().CacheHits
	if hitsBefore == 0 {
		t.Fatal("prefetch cache never warmed")
	}
	// Overwrite a prefetched LPN; rereading it must not be served stale
	// from cache bookkeeping (we only check it is dropped, i.e. it becomes
	// a buffer hit through the FTL instead).
	do(eng, s, blockdev.Write, 20*4096, 4096)
	if s.cache.has(20) {
		t.Fatal("written LPN still in read cache")
	}
}

func TestTrimCompletes(t *testing.T) {
	eng, s := newSmall(t)
	do(eng, s, blockdev.Write, 0, 32<<10)
	lat := do(eng, s, blockdev.Trim, 0, 32<<10)
	if lat < 0 {
		t.Fatal("trim never completed")
	}
	if s.Counters().Trims != 1 {
		t.Fatal("trim counter")
	}
}

func TestFlushCompletes(t *testing.T) {
	eng, s := newSmall(t)
	do(eng, s, blockdev.Write, 0, 4096)
	lat := do(eng, s, blockdev.Flush, 0, 0)
	if lat < 0 {
		t.Fatal("flush never completed")
	}
}

func TestSustainedWriteThroughputNearProgramBandwidth(t *testing.T) {
	eng, s := newSmall(t)
	// Pump 128 MiB of sequential 128 KiB writes at QD 8 and measure.
	const ioSize = 128 << 10
	const total = 128 << 20
	var completed int64
	var offset int64
	var submit func()
	inflight := 0
	submit = func() {
		for inflight < 8 && offset < total {
			inflight++
			off := offset
			offset += ioSize
			s.Submit(&blockdev.Request{
				Op: blockdev.Write, Offset: off % s.Capacity(), Size: ioSize,
				OnComplete: func(r *blockdev.Request, at sim.Time) {
					completed += ioSize
					inflight--
					submit()
				},
			})
		}
	}
	submit()
	eng.Run()
	if completed != total {
		t.Fatalf("completed %d of %d", completed, total)
	}
	secs := sim.Duration(eng.Now()).Seconds()
	gbps := float64(completed) / secs / 1e9
	// Die-limited program bandwidth is ≈2.76 GB/s.
	if gbps < 2.0 || gbps > 3.6 {
		t.Fatalf("sustained write throughput = %.2f GB/s, want ≈2.7", gbps)
	}
}

func TestSustainedReadThroughputNearHostLink(t *testing.T) {
	eng, s := newSmall(t)
	s.Precondition(1.0, false)
	const ioSize = 128 << 10
	const total = 128 << 20
	var completed, offset int64
	inflight := 0
	var submit func()
	submit = func() {
		for inflight < 16 && offset < total {
			inflight++
			off := offset % s.Capacity()
			offset += ioSize
			s.Submit(&blockdev.Request{
				Op: blockdev.Read, Offset: off, Size: ioSize,
				OnComplete: func(r *blockdev.Request, at sim.Time) {
					completed += ioSize
					inflight--
					submit()
				},
			})
		}
	}
	submit()
	eng.Run()
	secs := sim.Duration(eng.Now()).Seconds()
	gbps := float64(completed) / secs / 1e9
	// Sequential reads should approach the 3.5 GB/s host link.
	if gbps < 2.8 || gbps > 3.8 {
		t.Fatalf("sequential read throughput = %.2f GB/s, want ≈3.5", gbps)
	}
}

func TestMisalignedRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned request accepted")
		}
	}()
	eng, s := newSmall(t)
	_ = eng
	s.Submit(&blockdev.Request{Op: blockdev.Read, Offset: 123, Size: 4096})
}

func TestOutOfRangeRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range request accepted")
		}
	}()
	eng, s := newSmall(t)
	_ = eng
	s.Submit(&blockdev.Request{Op: blockdev.Read, Offset: s.Capacity(), Size: 4096})
}

func TestCounters(t *testing.T) {
	eng, s := newSmall(t)
	do(eng, s, blockdev.Write, 0, 8192)
	do(eng, s, blockdev.Read, 0, 4096)
	c := s.Counters()
	if c.Writes != 1 || c.WriteBytes != 8192 {
		t.Fatalf("write counters: %+v", c)
	}
	if c.Reads != 1 || c.ReadBytes != 4096 {
		t.Fatalf("read counters: %+v", c)
	}
}
