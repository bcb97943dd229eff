package contract

import (
	"bytes"
	"strings"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/harness"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// Synthetic grids modeled on the paper's Figure 2 annotations.
func paperGrids() (essd, ssd *harness.LatencyGrid) {
	mk := func(dev string, scale float64) *harness.LatencyGrid {
		g := &harness.LatencyGrid{Device: dev}
		for _, p := range harness.Fig2Patterns {
			for _, bs := range []int64{4 << 10, 256 << 10} {
				for _, qd := range []int{1, 16} {
					base := 300 * sim.Microsecond
					if dev == "ssd" {
						base = 10 * sim.Microsecond
						if p == workload.RandRead {
							base = 60 * sim.Microsecond
						}
						if bs == 256<<10 || qd == 16 {
							base *= 12
						}
					} else {
						if p == workload.RandRead {
							base = 470 * sim.Microsecond
						}
						if bs == 256<<10 || qd == 16 {
							base = sim.Duration(float64(base) * 3 * scale)
						}
					}
					g.Cells = append(g.Cells, harness.LatencyCell{
						Pattern: p, BlockSize: bs, QueueDepth: qd,
						Avg: base, P999: base * 2, Ops: 1000,
					})
				}
			}
		}
		return g
	}
	return mk("essd", 1), mk("ssd", 1)
}

func TestCheckO1PassesOnPaperShape(t *testing.T) {
	e, s := paperGrids()
	c := CheckObservation1(e, s)
	if !c.Passed {
		t.Fatalf("O1 failed on paper-shaped data: %v", c.Evidence)
	}
	if len(c.Evidence) < 4 {
		t.Fatalf("missing evidence: %v", c.Evidence)
	}
}

func TestCheckO1FailsWhenGapSmall(t *testing.T) {
	e, s := paperGrids()
	// Make the ESSD as fast as the SSD: the contract clause must fail.
	for i := range e.Cells {
		e.Cells[i].Avg = s.Cells[i].Avg
		e.Cells[i].P999 = s.Cells[i].P999
	}
	c := CheckObservation1(e, s)
	if c.Passed {
		t.Fatal("O1 passed with no latency gap")
	}
}

func TestCheckO2(t *testing.T) {
	essd := &harness.SustainedResult{Device: "essd", KneeCapFrac: 2.5, Throttled: true, WriteAmp: 1}
	ssd := &harness.SustainedResult{Device: "ssd", KneeCapFrac: 0.95, WriteAmp: 6, TailRate: 2e8}
	c := CheckObservation2(essd, ssd)
	if !c.Passed {
		t.Fatalf("O2 failed: %v", c.Evidence)
	}
	// ESSD with no knee at all also passes ("disappears").
	essd.KneeCapFrac = -1
	if !CheckObservation2(essd, ssd).Passed {
		t.Fatal("O2 failed for knee-free ESSD")
	}
	// ESSD knee as early as the SSD's fails.
	essd.KneeCapFrac = 0.9
	if CheckObservation2(essd, ssd).Passed {
		t.Fatal("O2 passed with early ESSD knee")
	}
	// SSD baseline without a knee invalidates the comparison.
	essd.KneeCapFrac = 2.5
	ssd.KneeCapFrac = -1
	if CheckObservation2(essd, ssd).Passed {
		t.Fatal("O2 passed with knee-free SSD baseline")
	}
}

func TestCheckO3(t *testing.T) {
	essd := &harness.RandSeqResult{Device: "essd", Cells: []harness.RandSeqCell{
		{BlockSize: 16 << 10, QueueDepth: 32, RandBW: 1.0e9, SeqBW: 0.4e9},
	}}
	ssd := &harness.RandSeqResult{Device: "ssd", Cells: []harness.RandSeqCell{
		{BlockSize: 16 << 10, QueueDepth: 32, RandBW: 2.7e9, SeqBW: 2.7e9},
	}}
	if c := CheckObservation3(essd, ssd); !c.Passed {
		t.Fatalf("O3 failed: %v", c.Evidence)
	}
	// No ESSD gain: fail.
	essd.Cells[0].RandBW = essd.Cells[0].SeqBW
	if CheckObservation3(essd, ssd).Passed {
		t.Fatal("O3 passed without ESSD gain")
	}
	// SSD showing a large gain: fail (baseline should be flat).
	essd.Cells[0].RandBW = 1.0e9
	ssd.Cells[0].RandBW = 4e9
	if CheckObservation3(essd, ssd).Passed {
		t.Fatal("O3 passed with pattern-sensitive SSD")
	}
}

func TestCheckO4(t *testing.T) {
	essd := &harness.MixedResult{Device: "essd", Points: []harness.MixedPoint{
		{WriteRatioPct: 0, TotalBW: 3.0e9},
		{WriteRatioPct: 50, TotalBW: 3.02e9},
		{WriteRatioPct: 100, TotalBW: 2.98e9},
	}}
	ssd := &harness.MixedResult{Device: "ssd", Points: []harness.MixedPoint{
		{WriteRatioPct: 0, TotalBW: 3.5e9},
		{WriteRatioPct: 30, TotalBW: 4.3e9},
		{WriteRatioPct: 100, TotalBW: 2.6e9},
	}}
	if c := CheckObservation4(essd, ssd); !c.Passed {
		t.Fatalf("O4 failed: %v", c.Evidence)
	}
	// Widen the ESSD spread: fail.
	essd.Points[0].TotalBW = 1.5e9
	if CheckObservation4(essd, ssd).Passed {
		t.Fatal("O4 passed with non-deterministic ESSD")
	}
}

func TestCheckO4IOPS(t *testing.T) {
	r := &harness.IOPSResult{Device: "essd", Points: []harness.IOPSPoint{
		{BlockSize: 4 << 10, IOPS: 60000, Bytes: 0.25e9},
		{BlockSize: 256 << 10, IOPS: 12000, Bytes: 3.0e9},
	}}
	c := CheckObservation4IOPS(r)
	if !c.Passed {
		t.Fatalf("size-coupled IOPS failed: %v", c.Evidence)
	}
	flat := &harness.IOPSResult{Device: "essd", Points: []harness.IOPSPoint{
		{BlockSize: 4 << 10, IOPS: 50000},
		{BlockSize: 256 << 10, IOPS: 49000},
	}}
	if CheckObservation4IOPS(flat).Passed {
		t.Fatal("flat IOPS passed the size-coupling check")
	}
}

func TestIOPSSpreadHelper(t *testing.T) {
	r := &harness.IOPSResult{Points: []harness.IOPSPoint{
		{IOPS: 100}, {IOPS: 50},
	}}
	if got := r.IOPSSpread(); got != 0.5 {
		t.Fatalf("spread = %v", got)
	}
	if (&harness.IOPSResult{}).IOPSSpread() != 0 {
		t.Fatal("empty spread")
	}
}

func TestReportFormatAndJSON(t *testing.T) {
	r := &Report{
		ESSD: "essd", SSD: "ssd",
		Checks: []Check{
			{ID: "O1", Title: "t1", Passed: true, Evidence: []string{"e1"}},
			{ID: "O2", Title: "t2", Passed: false, Evidence: []string{"e2"}},
		},
	}
	if r.Passed() {
		t.Fatal("report with failed check passed")
	}
	var buf bytes.Buffer
	Format(&buf, r)
	out := buf.String()
	for _, want := range []string{"[PASS] O1", "[FAIL] O2", "FAILED"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
	js, err := r.MarshalIndent()
	if err != nil || !strings.Contains(string(js), "\"O1\"") {
		t.Fatalf("json: %v / %s", err, js)
	}
}

func TestAdvisor(t *testing.T) {
	r := &Report{ESSD: "essd", SSD: "ssd", Checks: []Check{
		{ID: "O1", Passed: true}, {ID: "O2", Passed: true},
		{ID: "O3", Passed: false}, {ID: "O4", Passed: true},
	}}
	var buf bytes.Buffer
	FormatAdvice(&buf, r)
	out := buf.String()
	if !strings.Contains(out, "[I1] (applies)") {
		t.Errorf("I1 should apply:\n%s", out)
	}
	if !strings.Contains(out, "[I3] (verify manually") {
		t.Errorf("I3 depends on failed O3:\n%s", out)
	}
	if len(Implications()) != 5 {
		t.Fatal("paper defines five implications")
	}
}

// TestEvaluateQuickIntegration runs the full checker end-to-end on ESSD-2
// against the local SSD with reduced grids.
func TestEvaluateQuickIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration checker skipped in -short")
	}
	essdF := func(seed uint64) blockdev.Device {
		d, _ := profiles.ByName("essd2", sim.NewEngine(), sim.NewRNG(seed, 1))
		return d
	}
	ssdF := func(seed uint64) blockdev.Device {
		d, _ := profiles.ByName("ssd", sim.NewEngine(), sim.NewRNG(seed, 2))
		return d
	}
	rep := Evaluate(essdF, ssdF, EvalOptions{
		Harness:     harness.Options{CellDuration: 150 * sim.Millisecond, Warmup: 30 * sim.Millisecond, Seed: 3},
		CapMultiple: 1.6, // enough to expose the SSD knee; ESSD-2 has none
		Quick:       true,
	})
	var buf bytes.Buffer
	Format(&buf, rep)
	if !rep.Passed() {
		t.Fatalf("contract checker failed on calibrated profiles:\n%s", buf.String())
	}
}
