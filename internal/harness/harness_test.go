package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/expgrid"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

func essd1Factory(seed uint64) blockdev.Device {
	d, err := profiles.ByName("essd1", sim.NewEngine(), sim.NewRNG(seed, seed^0xaa))
	if err != nil {
		panic(err)
	}
	return d
}

func ssdFactory(seed uint64) blockdev.Device {
	d, err := profiles.ByName("ssd", sim.NewEngine(), sim.NewRNG(seed, seed^0xbb))
	if err != nil {
		panic(err)
	}
	return d
}

var quickOpts = Options{CellDuration: 120 * sim.Millisecond, Warmup: 20 * sim.Millisecond, Seed: 1}

func TestLatencyGridSmall(t *testing.T) {
	g := RunLatencyGridWith(essd1Factory,
		[]workload.Pattern{workload.RandWrite, workload.RandRead},
		[]int64{4 << 10}, []int{1, 8}, quickOpts)
	if len(g.Cells) != 4 {
		t.Fatalf("cells = %d", len(g.Cells))
	}
	c := g.Cell(workload.RandWrite, 4<<10, 1)
	if c == nil || c.Avg <= 0 || c.P999 < c.Avg || c.Ops == 0 {
		t.Fatalf("bad cell: %+v", c)
	}
	if g.Cell(workload.RandWrite, 8<<10, 1) != nil {
		t.Fatal("lookup of absent cell succeeded")
	}
	if g.Device == "" {
		t.Fatal("device name empty")
	}
}

func TestLatencyGridDeterministic(t *testing.T) {
	spec := []int64{4 << 10}
	a := RunLatencyGridWith(essd1Factory, []workload.Pattern{workload.RandRead}, spec, []int{4}, quickOpts)
	b := RunLatencyGridWith(essd1Factory, []workload.Pattern{workload.RandRead}, spec, []int{4}, quickOpts)
	if a.Cells[0].Avg != b.Cells[0].Avg || a.Cells[0].P999 != b.Cells[0].P999 {
		t.Fatal("same-seed grids differ")
	}
}

// TestLatencyGridSeedStability asserts the expgrid coordinate-hash seeding:
// a cell measures identical numbers whether it runs inside a larger grid or
// in a 1-cell grid, because its seed depends only on its own coordinates.
// (The old harness seeded cells from a shared counter, so any change to
// the axes silently re-seeded every later cell.)
func TestLatencyGridSeedStability(t *testing.T) {
	full := RunLatencyGridWith(essd1Factory,
		[]workload.Pattern{workload.RandWrite, workload.RandRead},
		[]int64{4 << 10, 64 << 10}, []int{1, 8}, quickOpts)
	sub := RunLatencyGridWith(essd1Factory,
		[]workload.Pattern{workload.RandRead}, []int64{64 << 10}, []int{8}, quickOpts)
	want := full.Cell(workload.RandRead, 64<<10, 8)
	got := sub.Cell(workload.RandRead, 64<<10, 8)
	if want == nil || got == nil {
		t.Fatal("cell missing")
	}
	if *want != *got {
		t.Fatalf("cell changed when axes were subset:\nfull grid: %+v\n1-cell:    %+v", want, got)
	}
}

// TestGridParallelDeterminism requires byte-identical Figure 2/4/5 results
// from 1-worker and 8-worker runs.
func TestGridParallelDeterminism(t *testing.T) {
	serial, parallel := quickOpts, quickOpts
	serial.Workers, parallel.Workers = 1, 8
	patterns := []workload.Pattern{workload.RandWrite, workload.SeqRead}
	sizes, qds := []int64{4 << 10, 64 << 10}, []int{1, 8}

	a := RunLatencyGridWith(essd1Factory, patterns, sizes, qds, serial)
	b := RunLatencyGridWith(essd1Factory, patterns, sizes, qds, parallel)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("latency grid differs between 1 and 8 workers:\n%+v\n%+v", a, b)
	}

	r4a := RunRandSeqSweepWith(essd1Factory, sizes, qds, serial)
	r4b := RunRandSeqSweepWith(essd1Factory, sizes, qds, parallel)
	if !reflect.DeepEqual(r4a, r4b) {
		t.Fatalf("rand/seq sweep differs between 1 and 8 workers:\n%+v\n%+v", r4a, r4b)
	}

	r5a := RunMixedSweepWith(ssdFactory, []int{0, 50, 100}, serial)
	r5b := RunMixedSweepWith(ssdFactory, []int{0, 50, 100}, parallel)
	if !reflect.DeepEqual(r5a, r5b) {
		t.Fatalf("mixed sweep differs between 1 and 8 workers:\n%+v\n%+v", r5a, r5b)
	}
}

// TestRunSustainedWrites checks the multi-device Figure 3 variant agrees
// with the single-device runner, device state included.
func TestRunSustainedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-device sustained write is slow")
	}
	devices := []expgrid.NamedFactory{
		{Name: "essd1", New: essd1Factory},
		{Name: "ssd", New: ssdFactory},
	}
	both := RunSustainedWrites(devices, 0.3, quickOpts)
	if len(both) != 2 {
		t.Fatalf("results = %d", len(both))
	}
	if both[0].Device == both[1].Device {
		t.Fatal("device order lost")
	}
	if both[1].WriteAmp < 1 {
		t.Fatalf("SSD write amp %v", both[1].WriteAmp)
	}
}

func TestRandSeqSweepSmall(t *testing.T) {
	r := RunRandSeqSweepWith(essd1Factory, []int64{16 << 10}, []int{1, 32}, quickOpts)
	if len(r.Cells) != 2 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	g1 := r.Cell(16<<10, 1).Gain()
	g32 := r.Cell(16<<10, 32).Gain()
	if g1 < 0.8 || g1 > 1.2 {
		t.Errorf("QD1 gain = %.2f, want ≈1", g1)
	}
	if g32 <= g1 {
		t.Errorf("gain did not grow with QD: %.2f -> %.2f", g1, g32)
	}
	max, at := r.MaxGain()
	if max != g32 || at.QueueDepth != 32 {
		t.Errorf("MaxGain = %.2f at %+v", max, at)
	}
}

func TestMixedSweepSmall(t *testing.T) {
	r := RunMixedSweepWith(essd1Factory, []int{0, 50, 100}, quickOpts)
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.Spread() > 0.12 {
		t.Errorf("ESSD spread = %.2f", r.Spread())
	}
	if r.Points[0].WriteBW != 0 {
		t.Errorf("pure-read point has write bandwidth %.0f", r.Points[0].WriteBW)
	}
	if r.Points[2].WriteBW < r.Points[2].TotalBW*0.95 {
		t.Errorf("pure-write point: write %.2f of total %.2f",
			r.Points[2].WriteBW/1e9, r.Points[2].TotalBW/1e9)
	}
}

func TestSustainedWriteSmallMultiple(t *testing.T) {
	// 0.3× capacity: no GC, no knee, full-speed writes on both devices.
	res := RunSustainedWrite(ssdFactory, 0.3, quickOpts)
	if res.KneeCapFrac >= 0 {
		t.Errorf("unexpected knee at %.2fx", res.KneeCapFrac)
	}
	mean := float64(res.TotalWritten) / res.Elapsed.Seconds()
	if mean < 2.0e9 {
		t.Errorf("SSD GC-free mean %.2f GB/s, want ≈2.7", mean/1e9)
	}
	want := int64(0.3 * float64(res.Capacity))
	if diff := res.TotalWritten - want; diff < -(128<<10) || diff > 128<<10 {
		t.Errorf("wrote %d, want ≈%d", res.TotalWritten, want)
	}
}

func TestPreconditionDispatch(t *testing.T) {
	// ESSD read cells get a full fill (write cells a half fill — covered
	// by the expgrid regression test).
	e := essd1Factory(1)
	expgrid.Precondition(e, false)
	lat := runOne(e, blockdev.Read, 0, 4096)
	if lat <= 0 {
		t.Fatal("read failed")
	}
	// SSD write cells get a half fill.
	s := ssdFactory(1).(interface {
		blockdev.Device
		FTLWriteAmp() float64
	})
	expgrid.Precondition(s, true)
}

// TestNegativeWarmupPassesThrough is the regression test for withDefaults
// clobbering an explicit "no warmup" request back to the 50 ms default:
// expgrid defines negative warmup as "no warmup at all", so the harness
// API must preserve the sign.
func TestNegativeWarmupPassesThrough(t *testing.T) {
	o := Options{Warmup: -1}.withDefaults()
	if o.Warmup != -1 {
		t.Fatalf("negative warmup became %v", o.Warmup)
	}
	if def := (Options{}).withDefaults(); def.Warmup != 50*sim.Millisecond {
		t.Fatalf("default warmup = %v", def.Warmup)
	}
	// End to end: a cell run with negative warmup must reach the workload
	// with zero warmup and record from the very first completion.
	opts := Options{CellDuration: 40 * sim.Millisecond, Warmup: -1, Seed: 3, Workers: 1}
	grid := RunLatencyGridWith(essd1Factory, []workload.Pattern{workload.RandRead},
		[]int64{4 << 10}, []int{1}, opts)
	warmed := RunLatencyGridWith(essd1Factory, []workload.Pattern{workload.RandRead},
		[]int64{4 << 10}, []int{1},
		Options{CellDuration: 40 * sim.Millisecond, Warmup: 20 * sim.Millisecond, Seed: 3, Workers: 1})
	if grid.Cells[0].Ops <= warmed.Cells[0].Ops {
		t.Fatalf("no-warmup cell recorded %d ops, warmed cell %d: warmup not disabled",
			grid.Cells[0].Ops, warmed.Cells[0].Ops)
	}
}

func runOne(d blockdev.Device, op blockdev.Op, off, size int64) sim.Duration {
	var lat sim.Duration = -1
	d.Submit(&blockdev.Request{Op: op, Offset: off, Size: size,
		OnComplete: func(r *blockdev.Request, at sim.Time) { lat = r.Latency(at) }})
	d.Engine().Run()
	return lat
}

func TestFormatTableI(t *testing.T) {
	var buf bytes.Buffer
	FormatTableI(&buf, profiles.TableI())
	out := buf.String()
	for _, want := range []string{"TABLE I", "io2", "PL3", "970 Pro", "100.0K", "Amazon AWS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFig2(t *testing.T) {
	e := RunLatencyGridWith(essd1Factory, []workload.Pattern{workload.RandWrite},
		[]int64{4 << 10}, []int{1}, quickOpts)
	s := RunLatencyGridWith(ssdFactory, []workload.Pattern{workload.RandWrite},
		[]int64{4 << 10}, []int{1}, quickOpts)
	var buf bytes.Buffer
	FormatFig2(&buf, e, s, MetricAvg)
	out := buf.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "randwrite") ||
		!strings.Contains(out, "x (") {
		t.Errorf("Fig2 output malformed:\n%s", out)
	}
	buf.Reset()
	FormatFig2(&buf, e, s, MetricP999)
	if !strings.Contains(buf.String(), "P99.9") {
		t.Error("P99.9 header missing")
	}
}

func TestFormatFig4AndFig5(t *testing.T) {
	r4 := RunRandSeqSweepWith(essd1Factory, []int64{16 << 10}, []int{32}, quickOpts)
	var buf bytes.Buffer
	FormatFig4(&buf, []*RandSeqResult{r4})
	if !strings.Contains(buf.String(), "max gain") {
		t.Errorf("Fig4 output malformed:\n%s", buf.String())
	}
	r5 := RunMixedSweepWith(essd1Factory, []int{0, 100}, quickOpts)
	buf.Reset()
	FormatFig5(&buf, []*MixedResult{r5})
	if !strings.Contains(buf.String(), "write ratio") {
		t.Errorf("Fig5 output malformed:\n%s", buf.String())
	}
}

func TestFormatFig3(t *testing.T) {
	res := RunSustainedWrite(ssdFactory, 0.2, quickOpts)
	var buf bytes.Buffer
	FormatFig3(&buf, []*SustainedResult{res})
	if !strings.Contains(buf.String(), "Figure 3") ||
		!strings.Contains(buf.String(), "timeline") {
		t.Errorf("Fig3 output malformed:\n%s", buf.String())
	}
}

func TestFormatWorkloadResult(t *testing.T) {
	d := essd1Factory(3)
	expgrid.Precondition(d, false)
	res := workload.Run(d, workload.Spec{
		Pattern: workload.Mixed, WriteRatio: 0.5, BlockSize: 8 << 10,
		QueueDepth: 4, MaxOps: 200, Seed: 9,
	})
	var buf bytes.Buffer
	FormatWorkloadResult(&buf, res)
	out := buf.String()
	for _, want := range []string{"throughput", "iops", "read ", "write "} {
		if !strings.Contains(out, want) {
			t.Errorf("workload summary missing %q:\n%s", want, out)
		}
	}
}

func TestMetricString(t *testing.T) {
	if MetricAvg.String() == MetricP999.String() {
		t.Fatal("metric names collide")
	}
}

func TestSizeLabel(t *testing.T) {
	if sizeLabel(4<<10) != "4K" || sizeLabel(2<<20) != "2M" {
		t.Fatal("size labels wrong")
	}
}

func TestCompactDur(t *testing.T) {
	cases := map[sim.Duration]string{
		333 * sim.Microsecond:  "333u",
		1400 * sim.Microsecond: "1.4m",
		12 * sim.Millisecond:   "12m",
	}
	for in, want := range cases {
		if got := compactDur(in); got != want {
			t.Errorf("compactDur(%v) = %q, want %q", in, got, want)
		}
	}
}
