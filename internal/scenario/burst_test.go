package scenario

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

func tierFactory(cfg essd.Config) expgrid.Factory {
	return func(seed uint64) blockdev.Device {
		return essd.New(sim.NewEngine(), cfg, sim.NewRNG(seed, seed^0x7))
	}
}

// TestBurstExhaustionMatchesCreditMath pins the measured exhaustion time
// and post-cliff throughput to the CreditBucket's analytic model on a tier
// whose credit machinery dominates every other limit:
//
//   - consumption at offered rate r (< burst ceiling R) drains credits at
//     r·(1-B/R) - B per second (B = baseline earn), so the bank of C bytes
//     empties at t = C / (r·(1-B/R) - B);
//   - after exhaustion a backlogged open loop sustains between B and the
//     just-in-time floor min(R, 2B).
func TestBurstExhaustionMatchesCreditMath(t *testing.T) {
	cfg := profiles.GP2Config()
	cfg.Name = "tiny-burst"
	cfg.ThroughputBudget = 400e6 // R: burst ceiling
	cfg.BurstBaseline = 100e6    // B
	cfg.BurstCreditBytes = 200e6 // C
	const rate = 1200.0
	rep, err := RunBurst(context.Background(), BurstSweep{
		Devices:        []expgrid.NamedFactory{{Name: "tiny", New: tierFactory(cfg)}},
		WriteRatiosPct: []int{0, 100}, // all-reads and all-writes cells
		Arrivals:       []workload.Arrival{workload.Uniform},
		RatesPerSec:    []float64{rate},
		Ops:            3000,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}

	offered := rate * burstBlockSize
	drain := offered*(1-cfg.BurstBaseline/cfg.ThroughputBudget) - cfg.BurstBaseline
	wantTTX := cfg.BurstCreditBytes / drain // ≈ 1.47 s
	floor := 2 * cfg.BurstBaseline          // min(R, 2B)

	for _, c := range rep.Cells {
		if !c.Burstable || c.Exhaustions == 0 || c.ExhaustedAt < 0 {
			t.Fatalf("wr=%d%%: no exhaustion captured: %+v", c.WriteRatioPct, c)
		}
		if got := c.Floor; got != floor {
			t.Errorf("wr=%d%%: floor = %v, want %v", c.WriteRatioPct, got, floor)
		}
		ttx := c.ExhaustedAt.Seconds()
		if ttx < 0.9*wantTTX || ttx > 1.15*wantTTX {
			t.Errorf("wr=%d%%: exhausted at %.3fs, want ≈%.3fs", c.WriteRatioPct, ttx, wantTTX)
		}
		// Pre-cliff the device keeps up with the offered rate.
		if c.PreCliffBps < 0.85*offered || c.PreCliffBps > 1.1*offered {
			t.Errorf("wr=%d%%: pre-cliff rate %.3g, offered %.3g", c.WriteRatioPct, c.PreCliffBps, offered)
		}
		// Post-cliff throughput collapses into the [baseline, floor] band.
		if c.PostCliffBps < 0.85*cfg.BurstBaseline || c.PostCliffBps > 1.1*floor {
			t.Errorf("wr=%d%%: post-cliff rate %.3g outside [%.3g, %.3g]",
				c.WriteRatioPct, c.PostCliffBps, cfg.BurstBaseline, floor)
		}
		// And the latency cliff is dramatic.
		if c.PostCliffLat < 10*c.PreCliffLat {
			t.Errorf("wr=%d%%: no latency cliff: pre %v post %v",
				c.WriteRatioPct, c.PreCliffLat, c.PostCliffLat)
		}
	}

	// Observation #4: the byte budget is pattern-blind, so all-reads and
	// all-writes exhaust at nearly the same time.
	r, w := rep.Cells[0].ExhaustedAt.Seconds(), rep.Cells[1].ExhaustedAt.Seconds()
	if diff := (r - w) / wantTTX; diff > 0.1 || diff < -0.1 {
		t.Errorf("read/write exhaustion split: %.3fs vs %.3fs", r, w)
	}
}

// TestBurstSuiteDeterministicAcrossWorkers is the acceptance grid: two
// burstable devices × three write ratios × uniform/bursty arrivals through
// the expgrid pool, byte-identical at 1 and 8 workers.
func TestBurstSuiteDeterministicAcrossWorkers(t *testing.T) {
	base := BurstSweep{
		WriteRatiosPct: []int{0, 50, 100},
		Arrivals:       []workload.Arrival{workload.Uniform, workload.Bursty},
		RatesPerSec:    []float64{3000},
		Ops:            1200,
		Seed:           5,
	}
	run := func(workers int) *BurstReport {
		s := base
		s.Workers = workers
		rep, err := RunBurst(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial, parallel := run(1), run(8)
	if len(serial.Cells) != 12 { // 2 devices × 3 ratios × 2 arrivals
		t.Fatalf("cells = %d, want 12", len(serial.Cells))
	}
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial.Cells {
			if !reflect.DeepEqual(serial.Cells[i], parallel.Cells[i]) {
				t.Fatalf("cell %d differs between 1 and 8 workers:\nserial:   %+v\nparallel: %+v",
					i, serial.Cells[i], parallel.Cells[i])
			}
		}
		t.Fatal("reports differ between 1 and 8 workers")
	}
	devices := map[string]bool{}
	for _, c := range serial.Cells {
		devices[c.Device] = true
		if !c.Burstable {
			t.Fatalf("default tier %s not burstable", c.Device)
		}
	}
	if !devices["gp2"] || !devices["gp2s"] {
		t.Fatalf("device axis wrong: %v", devices)
	}
}

// TestBurstFailedCellReturnsError pins the failed-cell contract: the
// expgrid runner suppresses errored cells and surfaces the first error, so
// RunBurst returns it instead of folding partial results (or panicking on
// a nil measurement).
func TestBurstFailedCellReturnsError(t *testing.T) {
	broken := expgrid.NamedFactory{Name: "broken", New: func(uint64) blockdev.Device { panic("no device") }}
	rep, err := RunBurst(context.Background(), BurstSweep{Devices: []expgrid.NamedFactory{broken}, Ops: 10})
	if err == nil || rep != nil {
		t.Fatalf("failed cell: rep=%v err=%v", rep, err)
	}
	if !strings.Contains(err.Error(), "expgrid: cell") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestFormatBurst(t *testing.T) {
	rep := &BurstReport{
		BlockSize: 256 << 10,
		Ops:       100,
		Cells: []BurstCell{
			{
				Device: "gp2", WriteRatioPct: 50, Arrival: workload.Bursty,
				RatePerSec: 3000, OfferedBps: 786e6,
				Burstable: true, CreditsLeft: 12e6, Exhaustions: 1,
				ExhaustedAt: 2 * sim.Second, Throttled: true,
				PreCliffLat: 500 * sim.Microsecond, PostCliffLat: 700 * sim.Millisecond,
				PreCliffBps: 780e6, PostCliffBps: 340e6,
			},
			{Device: "ssd", Arrival: workload.Uniform, RatePerSec: 1000, ExhaustedAt: -1},
		},
	}
	var buf bytes.Buffer
	FormatBurst(&buf, rep)
	out := buf.String()
	for _, want := range []string{"2.00s", "12MB", "THROTTLED", "500µs", "700.00ms", "gp2", "bursty"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The non-burstable row shows dashes, not credit numbers.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ssd") && !strings.Contains(line, "-") {
			t.Errorf("non-burstable row missing dashes: %q", line)
		}
	}
}
