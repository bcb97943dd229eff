package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"essdsim/internal/blockdev"
	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/fleet"
	"essdsim/internal/harness"
	"essdsim/internal/profiles"
	"essdsim/internal/qos"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// workloadDef is one named benchmark workload. Its names are fixed: later
// changes refer to them.
type workloadDef struct {
	name   string
	inputs string // input sizes, printed next to the name
	// tailPct is the fixed percentile cell_ms.tail reports; every
	// instance's minPasses keeps at least ten cells beyond it.
	tailPct float64
	build   func(seed uint64, workers int) (*instance, error)
}

var workloads = []*workloadDef{
	{
		name:    "paper-quick",
		inputs:  "Figs 2/4/5 closed-loop grids on essd1, essd2, ssd (4K-256K, QD 1-32; 177 cells) + one Fig 3 sustained write on ssd at 1.5x capacity",
		tailPct: 95,
		build:   buildPaperQuick,
	},
	{
		name:    "fleet",
		inputs:  "FleetPack: 8 tenants (2 bursty write aggressors), 2 backends, 4 placement policies + solo controls, fifo",
		tailPct: 99,
		build:   buildFleet,
	},
	{
		name:    "isolation",
		inputs:  "neighbor grid: 0/2/4 write aggressors @1600 req/s vs a 50/50 victim, 1200 victim requests, under wfq and reservation",
		tailPct: 95,
		build:   buildIsolation,
	},
	{
		name:    "kv-mix",
		inputs:  "KVMix: lsm, pagestore x skew 0, 0.99 x 3 tenants x 1500 ops (50% gets, 1 KiB values) on one shared essd1 backend",
		tailPct: 97,
		build:   buildKVMix,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// sweepDef is one expgrid sweep of a pass, as its suite builds it, plus a
// small warm-up variant run during set-up.
type sweepDef struct {
	name  string
	sw    expgrid.Sweep
	warm  *expgrid.Sweep
	cells int
	kvOps uint64 // ops every KV tenant is asked for (KV sweeps)
}

// instance is a workload built for one seed: its sweeps, the suite
// cross-check, the paper-shape rules, and what the layer ladder needs.
type instance struct {
	sweeps    []sweepDef
	minPasses int
	verify    func(ctx context.Context, workers int, res [][]expgrid.CellResult) ([]byte, error)
	shapes    func(res [][]expgrid.CellResult) []string
	ladder    ladderSpec
}

func (in *instance) add(name string, sw expgrid.Sweep, warm *expgrid.Sweep) {
	in.sweeps = append(in.sweeps, sweepDef{name: name, sw: sw, warm: warm, cells: len(sw.Cells())})
}

// validate checks every sweep before anything simulates: the expgrid axis
// rules, and — for closed-loop sweeps, whose factories see only a cell
// seed — that cell seeds are unique.
func (in *instance) validate() error {
	for _, d := range in.sweeps {
		if err := d.sw.Validate(); err != nil {
			return fmt.Errorf("sweep %s: %w", d.name, err)
		}
		if d.sw.Kind == expgrid.Closed {
			seen := map[uint64]bool{}
			for _, c := range d.sw.Cells() {
				if seen[c.Seed] {
					return fmt.Errorf("sweep %s: duplicate cell seed %x", d.name, c.Seed)
				}
				seen[c.Seed] = true
			}
		}
	}
	return nil
}

// warmUp runs each sweep's warm-up variant, so pooled engines, histograms
// and bitmaps exist and every code path has run once before timing. It
// uses one worker: set-up time is then the sum of its cells, not a race
// between two of them.
func (in *instance) warmUp(ctx context.Context) error {
	for _, d := range in.sweeps {
		if d.warm == nil {
			continue
		}
		if _, err := (expgrid.Runner{Workers: 1}).Run(ctx, *d.warm); err != nil {
			return fmt.Errorf("warm-up %s: %w", d.name, err)
		}
	}
	return nil
}

// firstCell returns a copy of a closed-loop sweep cut to its first cell.
func firstCell(sw expgrid.Sweep) *expgrid.Sweep {
	sw.Patterns, sw.BlockSizes, sw.QueueDepths = sw.Patterns[:1], sw.BlockSizes[:1], sw.QueueDepths[:1]
	if len(sw.WriteRatiosPct) > 0 {
		sw.WriteRatiosPct = sw.WriteRatiosPct[:1]
	}
	return &sw
}

// --- paper-quick -----------------------------------------------------

// Quick grids of cmd/ucexperiments -quick.
var (
	quickFig2Sizes = []int64{4 << 10, 64 << 10, 256 << 10}
	quickFig2QDs   = []int{1, 4, 16}
	quickFig4Sizes = []int64{4 << 10, 32 << 10, 256 << 10}
	quickFig4QDs   = []int{1, 8, 32}
	quickFig5      = []int{0, 30, 50, 70, 100}
	quickFig3Cap   = 1.5
	paperDevices   = []string{"essd1", "essd2", "ssd"}
)

// paperOpts are the -quick harness options.
func paperOpts(seed uint64, workers int) harness.Options {
	return harness.Options{CellDuration: 150 * sim.Millisecond, Warmup: 30 * sim.Millisecond, Seed: seed, Workers: workers}
}

// paperFactory builds a profile device exactly as cmd/ucexperiments does.
func paperFactory(name string, seed uint64) expgrid.Factory {
	return func(s uint64) blockdev.Device {
		d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(seed^s, s+0x9))
		if err != nil {
			panic(err) // expgrid recovers this into the cell's error
		}
		return d
	}
}

// sustainedInfo is the Fig 3 cell's post-run capture, as the harness
// takes it.
type sustainedInfo struct {
	capacity  int64
	throttled bool
	writeAmp  float64
}

func inspectSustained(dev blockdev.Device, _ expgrid.Cell) any {
	info := sustainedInfo{capacity: dev.Capacity(), writeAmp: 1}
	if e, ok := dev.(interface{ Throttled() bool }); ok {
		info.throttled = e.Throttled()
	}
	if s, ok := dev.(interface{ FTLWriteAmp() float64 }); ok {
		info.writeAmp = s.FTLWriteAmp()
	}
	return info
}

// Sweep indices of a paper-quick pass, in cmd/ucexperiments order.
const (
	pqFig2  = 0 // ssd, essd1, essd2
	pqFig3  = 3 // ssd
	pqFig4  = 4 // essd1, essd2, ssd
	pqFig5  = 7 // essd1, essd2, ssd
	pqCount = 10
)

// buildPaperQuick declares the sweeps harness.RunLatencyGridWith,
// RunSustainedWrites, RunRandSeqSweepWith and RunMixedSweepWith build for
// `ucexperiments -quick`: same labels, axes, timing and preconditioning,
// hence the same cell seeds and outputs.
func buildPaperQuick(seed uint64, workers int) (*instance, error) {
	in := &instance{minPasses: 2, ladder: ladderSpec{profile: profiles.ESSD1Config(), ssd: true}}
	base := func(dev, label string) expgrid.Sweep {
		return expgrid.Sweep{
			Devices:      expgrid.Devices("", paperFactory(dev, seed)),
			CellDuration: 150 * sim.Millisecond,
			Warmup:       30 * sim.Millisecond,
			Seed:         seed,
			Label:        label,
		}
	}
	for _, dev := range []string{"ssd", "essd1", "essd2"} {
		sw := base(dev, "fig2")
		sw.Patterns, sw.BlockSizes, sw.QueueDepths = harness.Fig2Patterns, quickFig2Sizes, quickFig2QDs
		in.add("fig2/"+dev, sw, firstCell(sw))
	}
	fig3 := base("ssd", "fig3")
	fig3.Devices = []expgrid.NamedFactory{{Name: "ssd", New: paperFactory("ssd", seed)}}
	fig3.Patterns = []workload.Pattern{workload.RandWrite}
	fig3.BlockSizes, fig3.QueueDepths = []int64{128 << 10}, []int{32}
	fig3.CapMultiple, fig3.Precondition = quickFig3Cap, expgrid.PrecondNone
	fig3.Inspect = inspectSustained
	in.add("fig3/ssd", fig3, nil)
	for _, dev := range paperDevices {
		sw := base(dev, "fig4")
		sw.Patterns = []workload.Pattern{workload.RandWrite, workload.SeqWrite}
		sw.BlockSizes, sw.QueueDepths = quickFig4Sizes, quickFig4QDs
		sw.Precondition = expgrid.PrecondWrites
		in.add("fig4/"+dev, sw, nil)
	}
	for _, dev := range paperDevices {
		sw := base(dev, "fig5")
		sw.Patterns, sw.BlockSizes, sw.QueueDepths = []workload.Pattern{workload.Mixed}, []int64{128 << 10}, []int{32}
		sw.WriteRatiosPct, sw.Precondition = quickFig5, expgrid.PrecondFull
		in.add("fig5/"+dev, sw, nil)
	}
	in.verify = func(ctx context.Context, workers int, res [][]expgrid.CellResult) ([]byte, error) {
		return verifyPaper(seed, workers, res)
	}
	in.shapes = paperShapes
	return in, nil
}

// paperFigs are the harness results a paper-quick pass folds into.
type paperFigs struct {
	fig2 [3]*harness.LatencyGrid // ssd, essd1, essd2
	fig3 []*harness.SustainedResult
	fig4 []*harness.RandSeqResult // essd1, essd2, ssd
	fig5 []*harness.MixedResult
}

// text renders the figures with the harness's own table and CSV writers.
func (f *paperFigs) text() []byte {
	var b bytes.Buffer
	for _, g := range f.fig2[1:] {
		harness.FormatFig2(&b, g, f.fig2[0], harness.MetricAvg)
		harness.FormatFig2(&b, g, f.fig2[0], harness.MetricP999)
		_ = harness.WriteFig2CSV(&b, g, f.fig2[0]) // bytes.Buffer writes cannot fail
	}
	harness.FormatFig3(&b, f.fig3)
	_ = harness.WriteFig3CSV(&b, f.fig3)
	harness.FormatFig4(&b, f.fig4)
	_ = harness.WriteFig4CSV(&b, f.fig4)
	harness.FormatFig5(&b, f.fig5)
	_ = harness.WriteFig5CSV(&b, f.fig5)
	return b.Bytes()
}

// foldPaper folds a pass's cells into the harness result types the way
// the harness Run functions do.
func foldPaper(res [][]expgrid.CellResult) *paperFigs {
	f := &paperFigs{}
	for i := range f.fig2 {
		g := &harness.LatencyGrid{}
		for _, r := range res[pqFig2+i] {
			s := r.Res.Lat.Summarize()
			g.Device = r.Device
			g.Cells = append(g.Cells, harness.LatencyCell{
				Pattern: r.Pattern, BlockSize: r.BlockSize, QueueDepth: r.QueueDepth,
				Avg: s.Mean, P999: s.P999, Ops: s.Count,
			})
		}
		f.fig2[i] = g
	}
	for _, r := range res[pqFig3] {
		f.fig3 = append(f.fig3, foldSustained(r))
	}
	for i := range paperDevices {
		rs := res[pqFig4+i]
		out := &harness.RandSeqResult{}
		half := len(rs) / 2
		for j := 0; j < half; j++ {
			rnd, seq := rs[j], rs[j+half]
			out.Device = rnd.Device
			out.Cells = append(out.Cells, harness.RandSeqCell{
				BlockSize: rnd.BlockSize, QueueDepth: rnd.QueueDepth,
				RandBW: rnd.Res.Throughput(), SeqBW: seq.Res.Throughput(),
			})
		}
		f.fig4 = append(f.fig4, out)
		mixed := &harness.MixedResult{}
		for _, r := range res[pqFig5+i] {
			mixed.Device = r.Device
			window := (r.Res.Elapsed - r.Res.Spec.Warmup).Seconds()
			var writeBW float64
			if window > 0 {
				writeBW = float64(int64(r.Res.WriteLat.Count())*(128<<10)) / window
			}
			mixed.Points = append(mixed.Points, harness.MixedPoint{
				WriteRatioPct: r.WriteRatioPct, TotalBW: r.Res.Throughput(), WriteBW: writeBW,
			})
		}
		f.fig5 = append(f.fig5, mixed)
	}
	return f
}

// foldSustained computes the Fig 3 knee, tail and peak of one cell.
func foldSustained(r expgrid.CellResult) *harness.SustainedResult {
	res := r.Res
	info := r.Info.(sustainedInfo)
	out := &harness.SustainedResult{
		Device: r.Device, Capacity: info.capacity,
		Interval: res.Series.Interval(), Rates: res.Series.Rates(),
		TotalWritten: res.Bytes, Elapsed: res.Elapsed, KneeCapFrac: -1,
		Throttled: info.throttled, WriteAmp: info.writeAmp,
	}
	n := res.Series.Len()
	out.TailRate = res.Series.MeanRate(n-5, n)
	for i := 0; i+3 <= n; i++ {
		if m := res.Series.MeanRate(i, i+3); m > out.PeakRate {
			out.PeakRate = m
		}
	}
	if knee := res.Series.KneeIndex(0.55, 3); knee >= 0 {
		var written int64
		for i := 0; i <= knee; i++ {
			written += res.Series.Bytes(i)
		}
		out.KneeCapFrac = float64(written) / float64(out.Capacity)
	}
	return out
}

// verifyPaper regenerates the quick figures through the harness's public
// Run functions and requires their tables and CSVs to equal the ones the
// benchmark's own pass folds into.
func verifyPaper(seed uint64, workers int, res [][]expgrid.CellResult) (suite []byte, err error) {
	defer func() {
		if p := recover(); p != nil { // the harness panics on a failed cell
			err = fmt.Errorf("harness: %v", p)
		}
	}()
	opts := paperOpts(seed, workers)
	f := map[string]harness.Factory{}
	for _, d := range paperDevices {
		f[d] = paperFactory(d, seed)
	}
	s := &paperFigs{}
	for i, d := range []string{"ssd", "essd1", "essd2"} {
		s.fig2[i] = harness.RunLatencyGridWith(f[d], harness.Fig2Patterns, quickFig2Sizes, quickFig2QDs, opts)
	}
	s.fig3 = harness.RunSustainedWrites([]expgrid.NamedFactory{{Name: "ssd", New: f["ssd"]}}, quickFig3Cap, opts)
	for _, d := range paperDevices {
		s.fig4 = append(s.fig4, harness.RunRandSeqSweepWith(f[d], quickFig4Sizes, quickFig4QDs, opts))
		s.fig5 = append(s.fig5, harness.RunMixedSweepWith(f[d], quickFig5, opts))
	}
	suite = s.text()
	if len(res) != pqCount {
		return suite, fmt.Errorf("pass has %d of %d sweeps", len(res), pqCount)
	}
	if mine := foldPaper(res).text(); !bytes.Equal(mine, suite) {
		return suite, fmt.Errorf("benchmark sweeps diverge from the harness (%s vs %s)", digest(mine), digest(suite))
	}
	return suite, nil
}

// paperShapes checks the paper's seed-independent shapes on a pass: the
// ESSD/SSD average-latency gap at 4K QD1 random writes is over 10x
// (Obs #1), the SSD has a Fig 3 GC knee (Obs #2), and essd2's largest
// random/sequential write gain is over 1.5 (Obs #3).
func paperShapes(res [][]expgrid.CellResult) []string {
	if len(res) != pqCount {
		return []string{"incomplete pass"}
	}
	for _, r := range res {
		if r == nil {
			return []string{"incomplete pass"}
		}
	}
	f := foldPaper(res)
	var bad []string
	ssd := f.fig2[0].Cell(workload.RandWrite, 4<<10, 1)
	for i, name := range []string{"essd1", "essd2"} {
		e := f.fig2[1+i].Cell(workload.RandWrite, 4<<10, 1)
		if gap := float64(e.Avg) / float64(ssd.Avg); !(gap > 10) {
			bad = append(bad, fmt.Sprintf("%s/ssd 4K QD1 latency gap %.2f, want > 10", name, gap))
		}
	}
	if k := f.fig3[0].KneeCapFrac; k <= 0 {
		bad = append(bad, fmt.Sprintf("ssd Fig 3 knee at %.2fx capacity, want one", k))
	}
	if g, _ := f.fig4[1].MaxGain(); !(g > 1.5) {
		bad = append(bad, fmt.Sprintf("essd2 rand/seq max gain %.2f, want > 1.5", g))
	}
	return bad
}

// --- fleet -----------------------------------------------------------

// fleetSpec is the FleetPack study of the repository's fleet benchmark.
func fleetSpec(seed uint64, workers int) fleet.Spec {
	return fleet.Spec{
		Demands:  fleet.SyntheticDemands(8, 2),
		Backends: 2,
		SLOP999:  5 * sim.Millisecond,
		Seed:     seed,
		Workers:  workers,
	}
}

// demandSignature is fleet's solo-control identity of a demand: its load
// shape without the name.
func demandSignature(d fleet.Demand) string {
	return fmt.Sprintf("r%g/bs%d/wr%d/%s/n%d", d.RatePerSec, d.BlockSize, d.WriteRatioPct, d.Arrival, d.Ops)
}

// fleetCells derives the study's simulation cells as fleet.Run does: one
// cell per distinct backend population across the policies, in first-
// appearance order, then one solo control per distinct demand shape.
func fleetCells(s fleet.Spec) ([]fleet.MixCell, error) {
	cons := s.PackingConstraints()
	byName := map[string]bool{}
	var cells []fleet.MixCell
	for _, p := range s.Policies {
		assign := p.Place(cons, s.Demands)
		if len(assign) != len(s.Demands) {
			return nil, fmt.Errorf("fleet: policy %s placed %d of %d demands", p.Name(), len(assign), len(s.Demands))
		}
		byBackend := make([][]fleet.Demand, s.Backends)
		for di, b := range assign {
			if b < 0 || b >= s.Backends {
				return nil, fmt.Errorf("fleet: policy %s placed a demand on backend %d", p.Name(), b)
			}
			byBackend[b] = append(byBackend[b], s.Demands[di])
		}
		for _, members := range byBackend {
			if len(members) == 0 {
				continue
			}
			names := make([]string, len(members))
			for i, d := range members {
				names[i] = d.Name
			}
			name := "mix[" + strings.Join(names, "+") + "]"
			if !byName[name] {
				byName[name] = true
				cells = append(cells, fleet.MixCell{Name: name, Members: members})
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range s.Demands {
		sig := demandSignature(d)
		if !seen[sig] {
			seen[sig] = true
			cells = append(cells, fleet.MixCell{Name: "solo[" + sig + "]", Solo: true, Members: []fleet.Demand{d}})
		}
	}
	return cells, nil
}

func buildFleet(seed uint64, workers int) (*instance, error) {
	spec := fleetSpec(seed, workers).Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells, err := fleetCells(spec)
	if err != nil {
		return nil, err
	}
	sw := spec.MixSweep(cells)
	warm := sw
	warm.Devices = sw.Devices[:1]
	in := &instance{minPasses: 100, ladder: ladderSpec{backend: spec.Backend, volume: spec.Volume}}
	in.add("fleet", sw, &warm)
	in.verify = func(ctx context.Context, workers int, res [][]expgrid.CellResult) ([]byte, error) {
		return verifyFleet(ctx, fleetSpec(seed, workers), res[0])
	}
	return in, nil
}

// verifyFleet runs fleet.Run and requires every tenant's ops and latency
// summary, per policy and per solo control, to match the benchmark's
// cells.
func verifyFleet(ctx context.Context, spec fleet.Spec, res []expgrid.CellResult) ([]byte, error) {
	rep, err := fleet.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	_ = fleet.WriteBackendsCSV(&b, rep) // bytes.Buffer writes cannot fail
	_ = fleet.WriteTenantsCSV(&b, rep)
	fleet.Format(&b, rep)
	if rep.Cells != len(res) {
		return b.Bytes(), fmt.Errorf("fleet.Run simulated %d cells, the benchmark %d", rep.Cells, len(res))
	}
	byName := map[string]expgrid.CellResult{}
	for _, r := range res {
		byName[r.DeviceName] = r
	}
	for _, sc := range rep.Solo {
		r, ok := byName["solo["+sc.Signature+"]"]
		if !ok || r.Mix[0].Open.Lat.Summarize() != sc.Lat {
			return b.Bytes(), fmt.Errorf("solo control %s differs", sc.Signature)
		}
	}
	demand := map[string]int{}
	for i, d := range fleet.SyntheticDemands(8, 2) {
		demand[d.Name] = i
	}
	for _, pr := range rep.Policies {
		for _, br := range pr.Backends {
			r, ok := byName["mix["+strings.Join(br.Tenants, "+")+"]"]
			if !ok {
				return b.Bytes(), fmt.Errorf("policy %s backend %d has no benchmark cell", pr.Policy, br.Index)
			}
			for mi, name := range br.Tenants {
				t, o := pr.Tenants[demand[name]], r.Mix[mi].Open
				if t.Ops != o.Ops || t.Lat != o.Lat.Summarize() {
					return b.Bytes(), fmt.Errorf("policy %s tenant %s differs", pr.Policy, name)
				}
			}
		}
	}
	return b.Bytes(), nil
}

// --- isolation -------------------------------------------------------

// neighborSweep is the quick neighbor grid under one isolation policy,
// every suite default spelled out so the benchmark's expgrid label and
// variant can be derived the way scenario.RunNeighbor derives them.
func neighborSweep(seed uint64, workers int, policy qos.IsolationPolicy) scenario.NeighborSweep {
	s := scenario.NeighborSweep{
		AggressorCounts:         []int{0, 2, 4},
		AggressorRatesPerSec:    []float64{1600},
		AggressorWriteRatiosPct: []int{100},
		VictimRatePerSec:        300,
		VictimOps:               1200,
		VictimBlockSize:         64 << 10,
		VictimWriteRatioPct:     50,
		VictimArrival:           workload.Uniform,
		AggressorBlockSize:      256 << 10,
		AggressorArrival:        workload.Bursty,
		Seed:                    seed,
		Workers:                 workers,
		Label:                   "neighbor",
		Isolation:               qos.Isolation{Policy: policy},
	}
	if policy == qos.IsolationReservation {
		s.VictimReservedRate = 2 * s.VictimRatePerSec * float64(s.VictimBlockSize)
	}
	return s
}

var isolationPolicies = []qos.IsolationPolicy{qos.IsolationWFQ, qos.IsolationReservation}

func buildIsolation(seed uint64, workers int) (*instance, error) {
	in := &instance{minPasses: 34, ladder: ladderSpec{
		backend: profiles.NeighborBackendConfig(), volume: profiles.NeighborVolumeConfig("victim"),
		iso: qos.Isolation{Policy: qos.IsolationWFQ},
	}}
	for _, pol := range isolationPolicies {
		s := neighborSweep(seed, workers, pol)
		sw := expgrid.Sweep{
			Kind:            expgrid.TenantMix,
			Devices:         []expgrid.NamedFactory{{Name: "shared"}},
			AggressorCounts: s.AggressorCounts,
			RatesPerSec:     s.AggressorRatesPerSec,
			WriteRatiosPct:  s.AggressorWriteRatiosPct,
			Tenants:         s.BuildTenants,
			InspectMix:      scenario.InspectNeighbors,
			DecodeInfo:      scenario.DecodeNeighborInfo,
			Seed:            s.Seed,
			Label: fmt.Sprintf("%s|v%d@%g/%dwr%d/%s|a%d/%s", s.Label,
				s.VictimOps, s.VictimRatePerSec, s.VictimBlockSize,
				s.VictimWriteRatioPct, s.VictimArrival,
				s.AggressorBlockSize, s.AggressorArrival),
			Variant: fmt.Sprintf("iso:%s|vw%g|vr%g", s.Isolation.Signature(), s.VictimWeight, s.VictimReservedRate),
		}
		warm := sw
		warm.AggressorCounts = []int{2}
		in.add("isolation/"+pol.String(), sw, &warm)
	}
	in.verify = func(ctx context.Context, workers int, res [][]expgrid.CellResult) ([]byte, error) {
		var b bytes.Buffer
		for i, pol := range isolationPolicies {
			rep, err := scenario.RunNeighbor(ctx, neighborSweep(seed, workers, pol))
			if err != nil {
				return nil, err
			}
			_ = scenario.WriteNeighborCSV(&b, rep) // bytes.Buffer writes cannot fail
			scenario.FormatNeighbor(&b, rep)
			if len(rep.Cells) != len(res[i]) {
				return b.Bytes(), fmt.Errorf("%s: RunNeighbor has %d cells, the benchmark %d", pol, len(rep.Cells), len(res[i]))
			}
			for j, c := range rep.Cells {
				r := res[i][j]
				var aggr uint64
				for _, t := range r.Mix[1:] {
					aggr += t.Open.Ops
				}
				if c.VictimOps != r.Mix[0].Open.Ops || c.VictimLat != r.Mix[0].Open.Lat.Summarize() || c.AggrOps != aggr {
					return b.Bytes(), fmt.Errorf("%s cell %d differs from RunNeighbor", pol, j)
				}
			}
		}
		return b.Bytes(), nil
	}
	return in, nil
}

// --- kv-mix ----------------------------------------------------------

// kvSweep is the KVMix suite of the repository's KV benchmark, every
// default spelled out for the label derivation scenario.RunKVMix uses.
func kvSweep(seed uint64, workers int) scenario.KVMixSweep {
	return scenario.KVMixSweep{
		Engines:       []string{"lsm", "pagestore"},
		Skews:         []float64{0, 0.99},
		ValueSizes:    []int64{1024},
		Tiers:         []string{"essd1"},
		Tenants:       3,
		OpsPerTenant:  1500,
		RatePerSec:    4000,
		ReadFracPct:   50,
		Arrival:       workload.Uniform,
		KeySpace:      1 << 18,
		MemtableBytes: 256 << 10,
		Seed:          seed,
		Workers:       workers,
		Label:         "kvmix",
	}
}

func buildKVMix(seed uint64, workers int) (*instance, error) {
	s := kvSweep(seed, workers)
	sw := expgrid.Sweep{
		Kind:         expgrid.KVMix,
		Devices:      []expgrid.NamedFactory{{Name: s.Tiers[0]}},
		KVEngines:    s.Engines,
		KVSkews:      s.Skews,
		KVValueSizes: s.ValueSizes,
		KV:           s.BuildKV,
		InspectKV:    scenario.InspectKVMix,
		DecodeInfo:   scenario.DecodeKVMixInfo,
		Seed:         s.Seed,
		Label: fmt.Sprintf("%s|t%d@%g/%dops/rf%d/%s/ks%d/mb%d", s.Label,
			s.Tenants, s.RatePerSec, s.OpsPerTenant, s.ReadFracPct,
			s.Arrival, s.KeySpace, s.MemtableBytes),
	}
	warm := sw
	warm.KVSkews = s.Skews[1:]
	cfg, err := profiles.ConfigByName(s.Tiers[0])
	if err != nil {
		return nil, err
	}
	in := &instance{minPasses: 84, ladder: ladderSpec{profile: cfg, kv: &s}}
	in.add("kv-mix", sw, &warm)
	in.sweeps[0].kvOps = s.OpsPerTenant
	in.verify = func(ctx context.Context, workers int, res [][]expgrid.CellResult) ([]byte, error) {
		rep, err := scenario.RunKVMix(ctx, kvSweep(seed, workers))
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		_ = scenario.WriteKVCSV(&b, rep) // bytes.Buffer writes cannot fail
		scenario.FormatKVMix(&b, rep)
		if len(rep.Cells) != len(res[0]) {
			return b.Bytes(), fmt.Errorf("RunKVMix has %d cells, the benchmark %d", len(rep.Cells), len(res[0]))
		}
		for j, c := range rep.Cells {
			r := res[0][j]
			var ops, puts, gets, stalls, flushes, comps uint64
			for _, t := range r.KV {
				ops, puts, gets = ops+t.Ops, puts+t.Puts, gets+t.Gets
				stalls, flushes, comps = stalls+t.Stats.Stalls, flushes+t.Stats.Flushes, comps+t.Stats.Compactions
			}
			info := r.Info.(scenario.KVMixInfo)
			if c.Ops != ops || c.Puts != puts || c.Gets != gets || c.Stalls != stalls ||
				c.Flushes != flushes || c.Compactions != comps || c.SharedDebt != info.SharedDebt || c.Throttled != info.Throttled {
				return b.Bytes(), fmt.Errorf("kv cell %d differs from RunKVMix", j)
			}
		}
		return b.Bytes(), nil
	}
	return in, nil
}

// ladderSpec is what the layer ladder needs to drive a workload's layers
// alone: the device profile (or shared backend and volume templates) its
// cells use, its backend isolation policy, whether it runs the local
// SSD, and its KV suite.
type ladderSpec struct {
	profile essd.Config
	backend essd.BackendConfig
	volume  essd.VolumeConfig
	iso     qos.Isolation
	ssd     bool
	kv      *scenario.KVMixSweep
}
