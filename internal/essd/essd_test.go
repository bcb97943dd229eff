package essd

import (
	"fmt"
	"math"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/cluster"
	"essdsim/internal/netsim"
	"essdsim/internal/sim"
)

// testConfig returns a small, fast ESSD for unit tests (1 GiB volume,
// constant latencies so assertions are exact).
func testConfig() Config {
	return Config{
		Name:             "test-essd",
		Provider:         "test",
		Model:            "t1",
		Capacity:         1 << 30,
		BlockSize:        4096,
		ThroughputBudget: 1e9,
		BudgetBurst:      8 << 20,
		IOPSBudget:       50000,
		IOPSBurst:        1000,
		IOPSChunkBytes:   256 << 10,
		FrontendSlots:    4,
		FrontendLatency:  sim.Const{V: 30 * sim.Microsecond},
		Net: netsim.Config{
			HopLatency: sim.Const{V: 40 * sim.Microsecond},
			UplinkBW:   2e9,
			DownlinkBW: 2e9,
		},
		Cluster: cluster.Config{
			Nodes:        8,
			ChunkBytes:   2 << 20,
			Replicas:     3,
			WriteSlots:   2,
			WriteService: sim.Const{V: 50 * sim.Microsecond},
			StreamBW:     1e9,
			ReplBW:       2.5e9,
			ReplHop:      sim.Const{V: 40 * sim.Microsecond},
			ReadSlots:    4,
			ReadService:  sim.Const{V: 200 * sim.Microsecond},
			ReadBW:       1e9,
			CleanerRate:  0.5e9,
		},
		SpareFrac:    0.5,
		ThrottleRate: 0.1e9,
	}
}

func newTest(t *testing.T) (*sim.Engine, *ESSD) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, testConfig(), sim.NewRNG(4, 4))
}

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
	_, e := newTest(t)
	if e.Capacity() != 1<<30 || e.BlockSize() != 4096 || e.Name() != "test-essd" {
		t.Fatal("device identity wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Capacity = 0 },
		func(c *Config) { c.Capacity = 4095 },
		func(c *Config) { c.ThroughputBudget = 0 },
		func(c *Config) { c.IOPSBudget = 0 },
		func(c *Config) { c.FrontendSlots = 0 },
		func(c *Config) { c.FrontendLatency = nil },
		func(c *Config) { c.Cluster.ChunkBytes = 4096 + 1 },
		func(c *Config) { c.Cluster.Nodes = 0 },
		// Isolation shares must be finite and non-negative; NaN passes
		// a plain < 0 test.
		func(c *Config) { c.Weight = -1 },
		func(c *Config) { c.Weight = math.NaN() },
		func(c *Config) { c.Weight = math.Inf(1) },
		func(c *Config) { c.ReservedRate = math.NaN() },
		func(c *Config) { c.ReservedRate = math.Inf(1) },
	}
	for i, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestWriteLatencyBreakdown(t *testing.T) {
	eng, e := newTest(t)
	lat := do(eng, e, blockdev.Write, 0, 4096)
	// fe 30 + uplink 2µs + hop 40 + replica leg (~2 + 40 + 50 + 40) + ack hop 40
	// ≈ 244µs with constant dists.
	if lat < 200*sim.Microsecond || lat > 300*sim.Microsecond {
		t.Fatalf("4K write latency = %v, want ≈244µs", lat)
	}
}

func TestReadLatencyBreakdown(t *testing.T) {
	eng, e := newTest(t)
	e.Precondition(1.0)
	lat := do(eng, e, blockdev.Read, 4096*999, 4096)
	// fe 30 + hop 40 + svc 200 + readBW 4µs + downlink 2µs + hop 40 ≈ 316µs.
	if lat < 280*sim.Microsecond || lat > 360*sim.Microsecond {
		t.Fatalf("4K read latency = %v, want ≈316µs", lat)
	}
}

func TestUnwrittenReadFastPath(t *testing.T) {
	eng, e := newTest(t)
	lat := do(eng, e, blockdev.Read, 0, 4096)
	// fe + 2 hops ≈ 110µs, no cluster involvement.
	if lat > 150*sim.Microsecond {
		t.Fatalf("unwritten read = %v, want metadata-only", lat)
	}
	if e.Counters().UnwrittenReads != 1 {
		t.Fatal("unwritten read not counted")
	}
	if e.Counters().SubReads != 0 {
		t.Fatal("unwritten read touched the cluster")
	}
}

func TestWriteMarksWritten(t *testing.T) {
	eng, e := newTest(t)
	do(eng, e, blockdev.Write, 64<<10, 8192)
	if !e.allWritten(64<<10, 8192) {
		t.Fatal("blocks not marked written")
	}
	if e.allWritten(0, 4096) {
		t.Fatal("unwritten block marked")
	}
}

func TestOverwriteAccruesDebt(t *testing.T) {
	eng, e := newTest(t)
	do(eng, e, blockdev.Write, 0, 1<<20)
	if e.Backend().Cluster().Debt() != 0 {
		t.Fatalf("first write created debt %d", e.Backend().Cluster().Debt())
	}
	// Debt is recorded synchronously at submission, before the cleaner
	// has simulated time to drain any of it.
	e.Submit(&blockdev.Request{Op: blockdev.Write, Offset: 0, Size: 1 << 20})
	if debt := e.Backend().Cluster().Debt(); debt != 1<<20 {
		t.Fatalf("overwrite debt = %d, want 1 MiB", debt)
	}
	eng.Run()
	// The cleaner drains while the write completes.
	if debt := e.Backend().Cluster().Debt(); debt >= 1<<20 {
		t.Fatalf("cleaner made no progress: debt = %d", debt)
	}
}

func TestChunkSplitting(t *testing.T) {
	eng, e := newTest(t)
	// 4 MiB write spanning two 2 MiB chunks starting mid-chunk:
	// offsets [1 MiB, 5 MiB) → chunks 0,1,2 → 3 subrequests.
	do(eng, e, blockdev.Write, 1<<20, 4<<20)
	if got := e.Counters().SubWrites; got != 3 {
		t.Fatalf("subwrites = %d, want 3", got)
	}
}

func TestSubRangeHelper(t *testing.T) {
	_, e := newTest(t)
	cases := []struct {
		off, size int64
		want      int
	}{
		{0, 4096, 1},
		{0, 2 << 20, 1},
		{1 << 20, 2 << 20, 2},
		{(2 << 20) - 4096, 8192, 2},
	}
	for _, c := range cases {
		if got := e.subCount(c.off, c.size); got != c.want {
			t.Fatalf("subCount(%d,%d) = %d, want %d", c.off, c.size, got, c.want)
		}
	}
}

func TestIOPSCost(t *testing.T) {
	_, e := newTest(t)
	if e.iopsCost(4096) != 1 {
		t.Fatal("4K should cost 1 token")
	}
	if e.iopsCost(256<<10) != 1 {
		t.Fatal("256K should cost 1 token")
	}
	if e.iopsCost((256<<10)+4096) != 2 {
		t.Fatal("257K should cost 2 tokens")
	}
}

func TestThroughputBudgetCapsWrites(t *testing.T) {
	eng, e := newTest(t)
	// Closed loop at QD32 for 300 ms: must pin near 1 GB/s.
	const ioSize = 128 << 10
	var completed int64
	stop := sim.Time(300 * sim.Millisecond)
	rng := sim.NewRNG(8, 8)
	var submit func()
	submit = func() {
		if eng.Now() >= stop {
			return
		}
		off := rng.Int64N(e.Capacity()/ioSize) * ioSize
		e.Submit(&blockdev.Request{
			Op: blockdev.Write, Offset: off, Size: ioSize,
			OnComplete: func(r *blockdev.Request, at sim.Time) {
				completed += ioSize
				submit()
			},
		})
	}
	for i := 0; i < 32; i++ {
		submit()
	}
	eng.Run()
	secs := sim.Duration(eng.Now()).Seconds()
	rate := float64(completed) / secs
	if rate < 0.9e9 || rate > 1.2e9 {
		t.Fatalf("budgeted write rate = %.2f GB/s, want ≈1.0", rate/1e9)
	}
	if e.BudgetStall() <= 0 {
		t.Fatal("budget stall not recorded under saturation")
	}
}

func TestFlowLimiterThrottlesAfterDebt(t *testing.T) {
	eng, e := newTest(t)
	// Overwrite the same 64 MiB region repeatedly: invalidation outruns
	// the 0.5 GB/s cleaner at 1 GB/s writes, so debt crosses
	// 0.5 × 1 GiB = 512 MiB and the limiter engages.
	const region = 64 << 20
	const ioSize = 1 << 20
	var submit func()
	var written int64
	submit = func() {
		if e.Throttled() || written > 8<<30 {
			return
		}
		off := written % region
		written += ioSize
		e.Submit(&blockdev.Request{
			Op: blockdev.Write, Offset: off, Size: ioSize,
			OnComplete: func(r *blockdev.Request, at sim.Time) { submit() },
		})
	}
	for i := 0; i < 16; i++ {
		submit()
	}
	eng.Run()
	if !e.Throttled() {
		t.Fatalf("flow limiter never engaged (wrote %d)", written)
	}
	if e.ThrottledAt() <= 0 {
		t.Fatal("throttle time not recorded")
	}
}

func TestTrimClearsWritten(t *testing.T) {
	eng, e := newTest(t)
	do(eng, e, blockdev.Write, 0, 1<<20)
	lat := do(eng, e, blockdev.Trim, 0, 1<<20)
	if lat < 0 {
		t.Fatal("trim never completed")
	}
	if e.allWritten(0, 4096) {
		t.Fatal("trim did not clear written bits")
	}
}

func TestFlushIsRoundTrip(t *testing.T) {
	eng, e := newTest(t)
	lat := do(eng, e, blockdev.Flush, 0, 0)
	// fe 30 + 2 hops 80 ≈ 110µs.
	if lat < 90*sim.Microsecond || lat > 140*sim.Microsecond {
		t.Fatalf("flush latency = %v", lat)
	}
}

func TestPreconditionMarksRange(t *testing.T) {
	_, e := newTest(t)
	e.Precondition(0.25)
	if !e.allWritten(0, e.Capacity()/4) {
		t.Fatal("precondition range not written")
	}
	if e.isWritten(e.Capacity() / 4 / 4096) {
		t.Fatal("precondition overshot")
	}
}

// Property: the chunk-boundary walk the dispatch paths use always
// partitions the request exactly — pieces sum to the request size, every
// piece fits in one chunk, pieces after the first start chunk-aligned —
// and the piece count matches subCount's closed-form answer.
func TestSubRangesPartitionProperty(t *testing.T) {
	_, e := newTest(t)
	chunk := e.be.cfg.Cluster.ChunkBytes
	f := func(offBlocks, sizeBlocks uint16) bool {
		off := int64(offBlocks) * 4096 % (e.Capacity() / 2)
		size := (int64(sizeBlocks)%2048 + 1) * 4096
		var sum int64
		var n int
		pos, left := off, size
		for left > 0 {
			p := chunk - pos%chunk
			if p > left {
				p = left
			}
			if p <= 0 || p > chunk {
				return false
			}
			if n > 0 && pos%chunk != 0 {
				return false
			}
			if pos/chunk != (pos+p-1)/chunk {
				return false // piece straddles a chunk boundary
			}
			pos += p
			left -= p
			sum += p
			n++
		}
		return sum == size && n == e.subCount(off, size)
	}
	if err := quickCheck(f); err != nil {
		t.Fatal(err)
	}
}

func quickCheck(f func(uint16, uint16) bool) error {
	for a := uint16(0); a < 200; a += 7 {
		for b := uint16(0); b < 200; b += 11 {
			if !f(a*131, b*17) {
				return fmt.Errorf("property failed at %d,%d", a, b)
			}
		}
	}
	return nil
}

// TestIOPSBudgetBindsSmallWrites verifies the IOPS token bucket caps 4K
// random writes below what latency alone would allow — the ESSD-1
// behaviour behind the kvdesign example and the O4-IOPS contract check.
func TestIOPSBudgetBindsSmallWrites(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.IOPSBudget = 5000 // deliberately tight
	cfg.IOPSBurst = 100
	e := New(eng, cfg, sim.NewRNG(6, 6))
	const n = 4000
	done := 0
	inflight := 0
	next := 0
	rng := sim.NewRNG(7, 7)
	var submit func()
	submit = func() {
		for inflight < 64 && next < n {
			next++
			inflight++
			e.Submit(&blockdev.Request{
				Op: blockdev.Write, Offset: rng.Int64N(1<<16) * 4096, Size: 4096,
				OnComplete: func(*blockdev.Request, sim.Time) {
					done++
					inflight--
					submit()
				},
			})
		}
	}
	submit()
	eng.Run()
	iops := float64(done) / sim.Duration(eng.Now()).Seconds()
	if iops > 5600 || iops < 4400 {
		t.Fatalf("achieved %.0f IOPS, want ≈5000 (budget-bound)", iops)
	}
}

func TestSequentialWindowUsesFewNodes(t *testing.T) {
	eng, e := newTest(t)
	// 64 sequential 4K writes land in one 2 MiB chunk → one primary.
	for i := int64(0); i < 64; i++ {
		do(eng, e, blockdev.Write, i*4096, 4096)
	}
	primaries, replicas := 0, 0
	for i := 0; i < e.Backend().Cluster().NumNodes(); i++ {
		st := e.Backend().Cluster().NodeStats(i)
		if st.Writes > 0 {
			primaries++
		}
		if st.ReplWrites > 0 {
			replicas++
		}
	}
	if primaries != 1 {
		t.Fatalf("sequential window used %d primaries, want 1", primaries)
	}
	if replicas != 2 {
		t.Fatalf("sequential window used %d replica nodes, want 2", replicas)
	}
}
