// Package integration holds cross-module tests: invariants that only hold
// when the device stacks, workload engine, and measurement layer agree end
// to end.
package integration

import (
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/essd"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/ssd"
	"essdsim/internal/workload"
)

func newESSD(t *testing.T, seed uint64) *essd.ESSD {
	t.Helper()
	return profiles.NewESSD1(sim.NewEngine(), sim.NewRNG(seed, seed))
}

func newSSD(t *testing.T, seed uint64) *ssd.SSD {
	t.Helper()
	return profiles.NewSSD(sim.NewEngine(), sim.NewRNG(seed, seed))
}

// TestESSDWriteByteConservation checks that every host write byte reaches
// the cluster exactly once as a primary write and Replicas-1 times as
// replica copies.
func TestESSDWriteByteConservation(t *testing.T) {
	e := newESSD(t, 1)
	res := workload.Run(e, workload.Spec{
		Pattern: workload.RandWrite, BlockSize: 64 << 10,
		QueueDepth: 8, MaxOps: 500, Seed: 2,
	})
	var primaryBytes int64
	var primaryOps, replOps uint64
	for i := 0; i < e.Backend().Cluster().NumNodes(); i++ {
		st := e.Backend().Cluster().NodeStats(i)
		primaryBytes += st.WriteBytes
		primaryOps += st.Writes
		replOps += st.ReplWrites
	}
	if primaryBytes != res.Bytes {
		t.Fatalf("cluster primary bytes %d != host bytes %d", primaryBytes, res.Bytes)
	}
	if primaryOps != uint64(e.Counters().SubWrites) {
		t.Fatalf("primary ops %d != subwrites %d", primaryOps, e.Counters().SubWrites)
	}
	if replOps != 2*primaryOps {
		t.Fatalf("replica copies %d != 2x primaries %d", replOps, primaryOps)
	}
}

// TestESSDBudgetNeverExceeded checks Observation #4's invariant from the
// outside: over any measured window, completed bytes never exceed budget ×
// window + burst.
func TestESSDBudgetNeverExceeded(t *testing.T) {
	e := newESSD(t, 3)
	e.Precondition(1.0)
	res := workload.Run(e, workload.Spec{
		Pattern: workload.Mixed, WriteRatio: 0.5, BlockSize: 128 << 10,
		QueueDepth: 64, Duration: 2 * sim.Second, Seed: 3,
	})
	cfg := profiles.ESSD1Config()
	for i := 0; i < res.Series.Len(); i++ {
		limit := cfg.ThroughputBudget*res.Series.Interval().Seconds() + cfg.BudgetBurst
		if got := float64(res.Series.Bytes(i)); got > limit*1.01 {
			t.Fatalf("bucket %d moved %.0f bytes, budget window allows %.0f", i, got, limit)
		}
	}
}

// TestSSDDataPathIntegrity drives mixed traffic through the SSD and
// verifies the FTL never loses track of written data (reads of written
// LBAs resolve, GC preserved mappings).
func TestSSDDataPathIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-device GC churn skipped in -short")
	}
	s := newSSD(t, 4)
	s.Precondition(1.0, true)
	// Churn: enough overwrites to trigger GC on the full device.
	res := workload.Run(s, workload.Spec{
		Pattern: workload.RandWrite, BlockSize: 32 << 10,
		QueueDepth: 16, TotalBytes: s.Capacity() / 4, Seed: 4,
	})
	if res.Bytes != s.Capacity()/4 {
		t.Fatalf("wrote %d", res.Bytes)
	}
	if s.FTLWriteAmp() <= 1 {
		t.Fatal("expected GC activity on a full device")
	}
	// Every LPN must still be mapped (full precondition + overwrites).
	f := s.FTL()
	for lpn := int64(0); lpn < f.UserLPNs(); lpn += 997 {
		if !f.Mapped(lpn) && !f.InBuffer(lpn) {
			t.Fatalf("LPN %d lost after GC churn", lpn)
		}
	}
}

// TestSSDvsESSDLatencyOrdering is the paper's core comparison as an
// invariant: at small/shallow I/O the ESSD is at least 10x slower; at
// large/deep writes the two converge within 3x.
func TestSSDvsESSDLatencyOrdering(t *testing.T) {
	measure := func(dev blockdev.Device, bs int64, qd int) sim.Duration {
		res := workload.Run(dev, workload.Spec{
			Pattern: workload.RandWrite, BlockSize: bs, QueueDepth: qd,
			Duration: 150 * sim.Millisecond, Warmup: 30 * sim.Millisecond, Seed: 6,
		})
		return res.Lat.Summarize().Mean
	}
	small := float64(measure(newESSD(t, 6), 4<<10, 1)) / float64(measure(newSSD(t, 6), 4<<10, 1))
	big := float64(measure(newESSD(t, 7), 256<<10, 16)) / float64(measure(newSSD(t, 7), 256<<10, 16))
	if small < 10 {
		t.Errorf("small-I/O gap %.1f, want >= 10", small)
	}
	if big > 3 {
		t.Errorf("scaled-I/O gap %.1f, want <= 3", big)
	}
}

// TestTrimReducesESSDDebt verifies TRIM integrates with the cleaning-debt
// model: trimmed blocks do not count as overwrites later.
func TestTrimReducesESSDDebt(t *testing.T) {
	e := newESSD(t, 8)
	eng := e.Engine()
	write := func() {
		done := false
		e.Submit(&blockdev.Request{Op: blockdev.Write, Offset: 0, Size: 1 << 20,
			OnComplete: func(*blockdev.Request, sim.Time) { done = true }})
		eng.Run()
		if !done {
			t.Fatal("write lost")
		}
	}
	write()
	e.Submit(&blockdev.Request{Op: blockdev.Trim, Offset: 0, Size: 1 << 20})
	eng.Run()
	debtBefore := e.Backend().Cluster().Debt()
	write() // rewrite of trimmed space: no overwrite debt
	if got := e.Backend().Cluster().Debt(); got > debtBefore {
		t.Fatalf("trimmed rewrite accrued debt: %d -> %d", debtBefore, got)
	}
}

// TestDeviceContractCompliance runs every profile through a common
// behavioural checklist: all request types complete, completions arrive in
// virtual-time order, and latencies are positive.
func TestDeviceContractCompliance(t *testing.T) {
	for _, name := range profiles.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			dev, err := profiles.ByName(name, eng, sim.NewRNG(9, 9))
			if err != nil {
				t.Fatal(err)
			}
			var completions int
			var lastAt sim.Time
			submit := func(op blockdev.Op, off, size int64) {
				dev.Submit(&blockdev.Request{Op: op, Offset: off, Size: size,
					OnComplete: func(r *blockdev.Request, at sim.Time) {
						completions++
						if at < lastAt {
							t.Errorf("completion time went backwards")
						}
						lastAt = at
						if r.Latency(at) <= 0 {
							t.Errorf("non-positive latency for %v", r.Op)
						}
					}})
			}
			submit(blockdev.Write, 0, 8192)
			submit(blockdev.Read, 0, 4096)
			submit(blockdev.Trim, 8192, 4096)
			submit(blockdev.Flush, 0, 0)
			eng.Run()
			if completions != 4 {
				t.Fatalf("%d of 4 requests completed", completions)
			}
		})
	}
}
