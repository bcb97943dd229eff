// Benchmarks regenerating every table and figure of the paper's evaluation
// (§III), one benchmark per artifact, plus ablation benches that each vary
// one device-model lever behind an observation. Custom metrics report the
// paper-facing quantities (latency gaps, knees, gains, spreads); ns/op
// measures the simulator's wall-clock cost of regenerating the artifact.
//
// Every benchmark reports the same two perf-trajectory metrics on top of
// its paper-facing ones: cells/sec (simulation cells — grid points, sweep
// runs, device ops — completed per wall-clock second; see reportCells) and
// allocs/op (via b.ReportAllocs). They are for measuring while working on
// one layer; the repository's end-to-end benchmark, with spreads and
// correctness checks, is perfbench/ (perfbench/README.md).
//
// Run: go test -bench=. -benchmem
package essdsim_test

import (
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"essdsim"
	"essdsim/internal/blockdev"
	"essdsim/internal/contract"
	"essdsim/internal/essd"
	"essdsim/internal/fleet"
	"essdsim/internal/harness"
	"essdsim/internal/profiles"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/ssd"
	"essdsim/internal/workload"
	"essdsim/kv"
)

func factory(name string) harness.Factory {
	return func(seed uint64) blockdev.Device {
		d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(seed, seed^0xbe))
		if err != nil {
			panic(err)
		}
		return d
	}
}

// benchOpts keeps per-iteration simulated time modest so -bench runs in
// minutes; the shapes are the same as the full cmd/ucexperiments pass.
var benchOpts = harness.Options{
	CellDuration: 150 * sim.Millisecond,
	Warmup:       30 * sim.Millisecond,
	Seed:         7,
}

// reportCells reports the uniform throughput metric: simulation cells
// completed per wall-clock second, where a cell is the benchmark's natural
// unit of simulated work (a latency-grid point, a sustained-write run, a
// packing-study cell, a device op). cellsPerIter is the count per
// benchmark iteration.
func reportCells(b *testing.B, cellsPerIter int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(cellsPerIter)*float64(b.N)/s, "cells/sec")
	}
}

// BenchmarkTableI regenerates Table I (device envelopes).
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		t := profiles.TableI()
		if len(t) != 3 {
			b.Fatal("Table I must have three rows")
		}
		rows = len(t)
		harness.FormatTableI(io.Discard, t)
	}
	reportCells(b, rows)
}

// benchFig2 measures one ESSD's Figure 2 panel against the SSD baseline
// and reports the paper's headline cells as metrics.
func benchFig2(b *testing.B, essdName string) {
	b.ReportAllocs()
	sizes := []int64{4 << 10, 64 << 10, 256 << 10}
	qds := []int{1, 4, 16}
	var gapSmall, gapBig float64
	cells := 0
	for i := 0; i < b.N; i++ {
		e := harness.RunLatencyGridWith(factory(essdName), harness.Fig2Patterns, sizes, qds, benchOpts)
		s := harness.RunLatencyGridWith(factory("ssd"), harness.Fig2Patterns, sizes, qds, benchOpts)
		cells = len(e.Cells) + len(s.Cells)
		ec := e.Cell(workload.RandWrite, 4<<10, 1)
		sc := s.Cell(workload.RandWrite, 4<<10, 1)
		gapSmall = float64(ec.Avg) / float64(sc.Avg)
		ec = e.Cell(workload.RandWrite, 256<<10, 16)
		sc = s.Cell(workload.RandWrite, 256<<10, 16)
		gapBig = float64(ec.Avg) / float64(sc.Avg)
	}
	reportCells(b, cells)
	b.ReportMetric(gapSmall, "gap@4K/QD1")
	b.ReportMetric(gapBig, "gap@256K/QD16")
}

// BenchmarkFig2_ESSD1 regenerates Figure 2a/2b (AWS io2 vs local SSD).
func BenchmarkFig2_ESSD1(b *testing.B) { benchFig2(b, "essd1") }

// BenchmarkFig2_ESSD2 regenerates Figure 2c/2d (Alibaba PL3 vs local SSD).
func BenchmarkFig2_ESSD2(b *testing.B) { benchFig2(b, "essd2") }

// BenchmarkFig3 regenerates Figure 3 (sustained random write, GC knees).
// A reduced 1.5x-capacity volume keeps iterations affordable while still
// exposing the SSD knee; the full 3x run lives in cmd/ucexperiments.
func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	var ssdKnee, essd2Knee float64
	for i := 0; i < b.N; i++ {
		s := harness.RunSustainedWrite(factory("ssd"), 1.5, benchOpts)
		e := harness.RunSustainedWrite(factory("essd2"), 1.5, benchOpts)
		ssdKnee = s.KneeCapFrac
		essd2Knee = e.KneeCapFrac
	}
	reportCells(b, 2)
	b.ReportMetric(ssdKnee, "ssd-knee-x")
	b.ReportMetric(essd2Knee, "essd2-knee-x")
}

// BenchmarkFig3Full regenerates the paper's full 3x-capacity Figure 3 for
// all three devices. Expensive; run with -bench=Fig3Full -benchtime=1x.
func BenchmarkFig3Full(b *testing.B) {
	b.ReportAllocs()
	var knees [3]float64
	for i := 0; i < b.N; i++ {
		for j, name := range []string{"essd1", "essd2", "ssd"} {
			knees[j] = harness.RunSustainedWrite(factory(name), 3, benchOpts).KneeCapFrac
		}
	}
	reportCells(b, 3)
	b.ReportMetric(knees[0], "essd1-knee-x")
	b.ReportMetric(knees[1], "essd2-knee-x")
	b.ReportMetric(knees[2], "ssd-knee-x")
}

// BenchmarkFig4 regenerates Figure 4 (random vs sequential writes).
func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	sizes := []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	qds := []int{1, 8, 32}
	var g1, g2, gs float64
	cells := 0
	for i := 0; i < b.N; i++ {
		r1 := harness.RunRandSeqSweepWith(factory("essd1"), sizes, qds, benchOpts)
		r2 := harness.RunRandSeqSweepWith(factory("essd2"), sizes, qds, benchOpts)
		rs := harness.RunRandSeqSweepWith(factory("ssd"), sizes, qds, benchOpts)
		cells = len(r1.Cells) + len(r2.Cells) + len(rs.Cells)
		g1, _ = r1.MaxGain()
		g2, _ = r2.MaxGain()
		gs, _ = rs.MaxGain()
	}
	reportCells(b, cells)
	b.ReportMetric(g1, "essd1-max-gain")
	b.ReportMetric(g2, "essd2-max-gain")
	b.ReportMetric(gs, "ssd-max-gain")
}

// BenchmarkFig5 regenerates Figure 5 (mixed read/write determinism).
func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	ratios := []int{0, 30, 50, 70, 100}
	var e1Spread, e2Spread, sSpread float64
	for i := 0; i < b.N; i++ {
		e1Spread = harness.RunMixedSweepWith(factory("essd1"), ratios, benchOpts).Spread()
		e2Spread = harness.RunMixedSweepWith(factory("essd2"), ratios, benchOpts).Spread()
		sSpread = harness.RunMixedSweepWith(factory("ssd"), ratios, benchOpts).Spread()
	}
	reportCells(b, 3*len(ratios))
	b.ReportMetric(e1Spread*100, "essd1-spread-%")
	b.ReportMetric(e2Spread*100, "essd2-spread-%")
	b.ReportMetric(sSpread*100, "ssd-spread-%")
}

// BenchmarkContract runs the full four-observation contract checker
// (quick grids) on ESSD-2.
func BenchmarkContract(b *testing.B) {
	b.ReportAllocs()
	pass := 0.0
	checks := 0
	for i := 0; i < b.N; i++ {
		rep := contract.Evaluate(factory("essd2"), factory("ssd"), contract.EvalOptions{
			Harness:     benchOpts,
			CapMultiple: 1.6,
			Quick:       true,
		})
		checks = len(rep.Checks)
		if rep.Passed() {
			pass = 1
		}
	}
	reportCells(b, checks)
	b.ReportMetric(pass, "passed")
}

// --- Ablation benches: one device-model lever each ---

// BenchmarkAblationChunkSize varies the placement chunk size, the
// Observation #3 lever: larger chunks keep a sequential window on one
// placement group longer and widen the rand/seq gain.
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, chunkMB := range []int64{1, 2, 8} {
		b.Run(fmtMB(chunkMB), func(b *testing.B) {
			f := func(seed uint64) blockdev.Device {
				cfg := profiles.ESSD2Config()
				cfg.Cluster.ChunkBytes = chunkMB << 20
				return essd.New(sim.NewEngine(), cfg, sim.NewRNG(seed, 1))
			}
			b.ReportAllocs()
			var gain float64
			cells := 0
			for i := 0; i < b.N; i++ {
				r := harness.RunRandSeqSweepWith(f, []int64{64 << 10}, []int{32}, benchOpts)
				cells = len(r.Cells)
				gain, _ = r.MaxGain()
			}
			reportCells(b, cells)
			b.ReportMetric(gain, "gain@64K/QD32")
		})
	}
}

// BenchmarkAblationReplication varies the replication factor: wider
// fan-out costs write latency but not sequential bandwidth (the stream
// stays the bottleneck).
func BenchmarkAblationReplication(b *testing.B) {
	for _, replicas := range []int{1, 2, 3} {
		b.Run(fmtN("r", replicas), func(b *testing.B) {
			f := func(seed uint64) blockdev.Device {
				cfg := profiles.ESSD1Config()
				cfg.Cluster.Replicas = replicas
				return essd.New(sim.NewEngine(), cfg, sim.NewRNG(seed, 1))
			}
			b.ReportAllocs()
			var avg float64
			for i := 0; i < b.N; i++ {
				g := harness.RunLatencyGridWith(f, []workload.Pattern{workload.RandWrite},
					[]int64{4 << 10}, []int{1}, benchOpts)
				avg = g.Cells[0].Avg.Micros()
			}
			reportCells(b, 1)
			b.ReportMetric(avg, "write-avg-µs")
		})
	}
}

// BenchmarkAblationCleanerRate varies the backend cleaner rate, the
// Observation #2 lever: slower cleaners accumulate debt and engage the
// flow limiter earlier.
func BenchmarkAblationCleanerRate(b *testing.B) {
	for _, frac := range []float64{0.4, 0.8, 1.2} {
		b.Run(fmtPct(frac), func(b *testing.B) {
			f := func(seed uint64) blockdev.Device {
				cfg := profiles.ESSD1Config()
				cfg.Cluster.CleanerRate = frac * cfg.ThroughputBudget
				cfg.SpareFrac = 0.25
				return essd.New(sim.NewEngine(), cfg, sim.NewRNG(seed, 1))
			}
			b.ReportAllocs()
			var knee float64
			for i := 0; i < b.N; i++ {
				knee = harness.RunSustainedWrite(f, 2, benchOpts).KneeCapFrac
			}
			reportCells(b, 1)
			b.ReportMetric(knee, "knee-x")
		})
	}
}

// BenchmarkAblationWriteBuffer varies the local SSD's DRAM write buffer,
// the small-write latency lever.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	for _, mb := range []int64{4, 64} {
		b.Run(fmtMB(mb), func(b *testing.B) {
			f := func(seed uint64) blockdev.Device {
				cfg := profiles.SSDConfig()
				cfg.FTL.WriteBufferBytes = mb << 20
				return ssd.New(sim.NewEngine(), cfg, sim.NewRNG(seed, 1))
			}
			b.ReportAllocs()
			var p999 float64
			for i := 0; i < b.N; i++ {
				g := harness.RunLatencyGridWith(f, []workload.Pattern{workload.RandWrite},
					[]int64{256 << 10}, []int{16}, benchOpts)
				p999 = g.Cells[0].P999.Micros()
			}
			reportCells(b, 1)
			b.ReportMetric(p999, "write-p999-µs")
		})
	}
}

// BenchmarkAblationPrefetchDepth varies the SSD prefetcher, the lever
// behind the paper's huge ESSD sequential-read gap.
func BenchmarkAblationPrefetchDepth(b *testing.B) {
	for _, depth := range []int{0, 16, 64} {
		b.Run(fmtN("d", depth), func(b *testing.B) {
			f := func(seed uint64) blockdev.Device {
				cfg := profiles.SSDConfig()
				cfg.PrefetchDepth = depth
				return ssd.New(sim.NewEngine(), cfg, sim.NewRNG(seed, 1))
			}
			b.ReportAllocs()
			var avg float64
			for i := 0; i < b.N; i++ {
				g := harness.RunLatencyGridWith(f, []workload.Pattern{workload.SeqRead},
					[]int64{4 << 10}, []int{1}, benchOpts)
				avg = g.Cells[0].Avg.Micros()
			}
			reportCells(b, 1)
			b.ReportMetric(avg, "seqread-avg-µs")
		})
	}
}

// BenchmarkAblationBurst varies the ESSD token-bucket burst, the
// Implication #4 lever trading burst absorption against queueing.
func BenchmarkAblationBurst(b *testing.B) {
	for _, mb := range []int64{4, 48, 256} {
		b.Run(fmtMB(mb), func(b *testing.B) {
			f := func(seed uint64) blockdev.Device {
				cfg := profiles.ESSD1Config()
				cfg.BudgetBurst = float64(mb << 20)
				return essd.New(sim.NewEngine(), cfg, sim.NewRNG(seed, 1))
			}
			b.ReportAllocs()
			var p999 float64
			for i := 0; i < b.N; i++ {
				g := harness.RunLatencyGridWith(f, []workload.Pattern{workload.RandWrite},
					[]int64{256 << 10}, []int{16}, benchOpts)
				p999 = g.Cells[0].P999.Micros()
			}
			reportCells(b, 1)
			b.ReportMetric(p999, "write-p999-µs")
		})
	}
}

// BenchmarkKVDesign runs the future-work case study: LSM vs update-in-place
// ingest on ESSD-2, reporting effective put rates.
func BenchmarkKVDesign(b *testing.B) {
	b.ReportAllocs()
	var lsmRate, ipRate float64
	for i := 0; i < b.N; i++ {
		eng := essdsim.NewEngine()
		dev, err := essdsim.NewDevice("essd2", eng, 3)
		if err != nil {
			b.Fatal(err)
		}
		essdsim.Precondition(dev, true)
		lsm := kv.Ingest(eng, kv.NewLSM(dev, kv.DefaultLSMConfig()), 20000, 1024, 32, 50000, 3)
		lsmRate = lsm.PutsPerSec()

		eng2 := essdsim.NewEngine()
		dev2, err := essdsim.NewDevice("essd2", eng2, 3)
		if err != nil {
			b.Fatal(err)
		}
		essdsim.Precondition(dev2, true)
		ip := kv.Ingest(eng2, kv.NewPageStore(dev2, kv.DefaultPageStoreConfig(dev2)), 20000, 1024, 32, 50000, 3)
		ipRate = ip.PutsPerSec()
	}
	reportCells(b, 2)
	b.ReportMetric(lsmRate/1e3, "lsm-Kops/s")
	b.ReportMetric(ipRate/1e3, "inplace-Kops/s")
}

// BenchmarkKVIngest measures the raw KV hot path: wall-clock puts/sec
// through the allocation-free LSM ingest pump (the number the PR 9 bench
// gate holds), with the page-store read-modify-write path as a secondary
// sub-benchmark. puts/sec here is wall-clock throughput of the simulator,
// not virtual-time throughput of the engine.
func BenchmarkKVIngest(b *testing.B) {
	run := func(b *testing.B, mk func(dev essdsim.Device) kv.Engine) {
		b.ReportAllocs()
		const puts = 200_000
		for i := 0; i < b.N; i++ {
			eng := essdsim.NewEngine()
			dev, err := essdsim.NewDevice("essd2", eng, 3)
			if err != nil {
				b.Fatal(err)
			}
			essdsim.Precondition(dev, true)
			e := mk(dev)
			res := kv.Ingest(eng, e, puts, 1024, 32, 100_000, 3)
			if res.Puts != puts {
				b.Fatalf("ingest dropped puts: %+v", res)
			}
		}
		b.ReportMetric(float64(puts)*float64(b.N)/b.Elapsed().Seconds(), "puts/sec")
	}
	b.Run("lsm", func(b *testing.B) {
		run(b, func(dev essdsim.Device) kv.Engine {
			return kv.NewLSM(dev, kv.DefaultLSMConfig())
		})
	})
	b.Run("pagestore", func(b *testing.B) {
		run(b, func(dev essdsim.Device) kv.Engine {
			return kv.NewPageStore(dev, kv.DefaultPageStoreConfig(dev))
		})
	})
}

// BenchmarkKVMix measures the KV tenant-mix suite end to end: the
// engine × skew grid of multi-tenant shared-backend cells through the
// expgrid pool, the regime `-exp kv` runs. ops/sec is wall-clock user
// operations simulated per second across all cells.
func BenchmarkKVMix(b *testing.B) {
	sweep := scenario.KVMixSweep{
		Engines:      []string{"lsm", "pagestore"},
		Skews:        []float64{0, 0.99},
		Tenants:      3,
		OpsPerTenant: 1500,
		Seed:         7,
	}
	b.ReportAllocs()
	var ops uint64
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunKVMix(context.Background(), sweep)
		if err != nil {
			b.Fatal(err)
		}
		ops = 0
		for _, c := range rep.Cells {
			if c.Ops == 0 {
				b.Fatalf("cell %s/%g measured no ops", c.Engine, c.Skew)
			}
			ops += c.Ops
		}
	}
	b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkTraceOverhead measures what the observability planes cost the
// neighbor sweep. "off" is the stock untraced path — the nil-fast branch
// every unobserved simulation pays, the number the FleetPack/KVIngest/
// KVMix gates protect. "on" traces every 64th request and probes every
// millisecond; its ratio to "off" is the enabled-tracing cost
// docs/observability.md quotes. Observed runs bypass cache reads, so the
// two variants simulate identical work.
func BenchmarkTraceOverhead(b *testing.B) {
	modes := []struct {
		name string
		obs  *essdsim.ObsConfig
	}{
		{"off", nil},
		{"on", &essdsim.ObsConfig{SampleEvery: 64, ProbeInterval: sim.Millisecond}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			sweep := essdsim.NeighborSweep{
				AggressorCounts:      []int{0, 2},
				AggressorRatesPerSec: []float64{1600},
				VictimOps:            600,
				Seed:                 7,
				Obs:                  mode.obs,
			}
			b.ReportAllocs()
			cells, spans := 0, 0
			for i := 0; i < b.N; i++ {
				rep, err := essdsim.RunNeighborScenario(context.Background(), sweep)
				if err != nil {
					b.Fatal(err)
				}
				cells = len(rep.Cells)
				if mode.obs != nil {
					spans = 0
					for _, cap := range rep.Captures {
						spans += len(cap.Tracer.Spans())
					}
					if spans == 0 {
						b.Fatal("traced run recorded no spans")
					}
				}
			}
			reportCells(b, cells)
			b.ReportMetric(float64(spans), "spans")
		})
	}
}

// BenchmarkProbeSampling measures the state-probe plane alone: one
// elastic volume driven open-loop with every backend gauge sampled each
// 100 µs of simulated time. samples/sec is probe ticks executed per
// wall-clock second — the cost of the read-only Peek* samplers plus the
// probe events threaded through the engine.
func BenchmarkProbeSampling(b *testing.B) {
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		eng := essdsim.NewEngine()
		dev, err := essdsim.NewDevice("essd1", eng, 3)
		if err != nil {
			b.Fatal(err)
		}
		cap, err := essdsim.InstrumentDevice(dev, "bench", &essdsim.ObsConfig{
			SampleEvery:   64,
			ProbeInterval: 100 * sim.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		essdsim.Precondition(dev, true)
		res := essdsim.RunOpen(dev, essdsim.OpenWorkload{
			Pattern:    essdsim.RandWrite,
			BlockSize:  64 << 10,
			RatePerSec: 4000,
			Count:      2000,
			Seed:       3,
		})
		if res.Ops != 2000 {
			b.Fatalf("short run: %d ops", res.Ops)
		}
		rows = cap.Prober.Samples()
		if rows == 0 {
			b.Fatal("no probe samples collected")
		}
	}
	reportCells(b, 1)
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkAblationBurstCredits contrasts the burstable gp2-class tier's
// two regimes: a short burst-backed sprint vs a drained-credit slog.
func BenchmarkAblationBurstCredits(b *testing.B) {
	b.ReportAllocs()
	var burstRate, baseRate float64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		dev, err := profiles.ByName("gp2", eng, sim.NewRNG(5, 5))
		if err != nil {
			b.Fatal(err)
		}
		res := workload.Run(dev, workload.Spec{
			Pattern: workload.RandWrite, BlockSize: 256 << 10,
			QueueDepth: 32, TotalBytes: 4 << 30, Seed: 5,
		})
		burstRate = res.Series.Rate(0)
		baseRate = res.Series.MeanRate(res.Series.Len()-3, res.Series.Len())
	}
	reportCells(b, 1)
	b.ReportMetric(burstRate/1e9, "burst-GB/s")
	b.ReportMetric(baseRate/1e9, "drained-GB/s")
}

// BenchmarkFig2Workers measures worker-pool scaling of the full Figure 2
// latency grid (80 cells): the identical sweep at 1, 2, 4, and 8 workers.
// On a machine with ≥4 cores the 4-worker run completes the grid in less
// than half the 1-worker wall clock (cells are embarrassingly parallel);
// the results are byte-identical at every worker count, which the
// "identical" metric asserts against the 1-worker grid.
//
// Run: go test -bench=Fig2Workers -benchtime=1x
func BenchmarkFig2Workers(b *testing.B) {
	baseline := harness.RunLatencyGridWith(factory("essd1"),
		harness.Fig2Patterns, harness.Fig2Sizes, harness.Fig2QDs, benchOpts)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmtN("workers", w), func(b *testing.B) {
			b.ReportAllocs()
			opts := benchOpts
			opts.Workers = w
			identical := 1.0
			for i := 0; i < b.N; i++ {
				g := harness.RunLatencyGridWith(factory("essd1"),
					harness.Fig2Patterns, harness.Fig2Sizes, harness.Fig2QDs, opts)
				if !reflect.DeepEqual(g, baseline) {
					identical = 0
				}
			}
			reportCells(b, len(baseline.Cells))
			b.ReportMetric(identical, "identical")
		})
	}
}

// BenchmarkNeighborSweep measures multi-tenant sweep throughput: a 3-cell
// noisy-neighbor grid (0/2/4 aggressors on one shared backend per cell).
// cells/sec is the perf-trajectory metric for shared-backend simulation;
// the p99.9 inflation metric pins that the interference signal stays
// present as the simulator evolves.
//
// Run: go test -bench=NeighborSweep -benchtime=1x
func BenchmarkNeighborSweep(b *testing.B) {
	sweep := essdsim.NeighborSweep{
		AggressorCounts:      []int{0, 2, 4},
		AggressorRatesPerSec: []float64{1600},
		VictimOps:            900,
		Seed:                 7,
	}
	b.ReportAllocs()
	var inflation float64
	cells := 0
	for i := 0; i < b.N; i++ {
		rep, err := essdsim.RunNeighborScenario(context.Background(), sweep)
		if err != nil {
			b.Fatal(err)
		}
		cells = len(rep.Cells)
		inflation = rep.Cells[cells-1].P999Inflation
	}
	reportCells(b, cells)
	b.ReportMetric(inflation, "victim-p999-x")
}

// BenchmarkNeighborIsolation measures the throughput cost and the tail
// effect of each per-tenant QoS isolation policy on the 3-cell
// noisy-neighbor grid. cells/sec per policy is the perf-trajectory metric
// for the scheduled (non-FIFO) queueing paths; victim-p999-x pins the
// isolation signal itself — wfq and reservation must keep the victim's
// worst p99.9 inflation far below fifo's as the simulator evolves.
//
// Run: go test -bench=NeighborIsolation -benchtime=1x
func BenchmarkNeighborIsolation(b *testing.B) {
	policies := []essdsim.IsolationPolicy{
		essdsim.IsolationFIFO, essdsim.IsolationWFQ, essdsim.IsolationReservation,
	}
	for _, policy := range policies {
		b.Run(policy.String(), func(b *testing.B) {
			sweep := essdsim.NeighborSweep{
				AggressorCounts:      []int{0, 2, 4},
				AggressorRatesPerSec: []float64{1600},
				VictimOps:            900,
				Seed:                 7,
				Isolation:            essdsim.Isolation{Policy: policy},
			}
			b.ReportAllocs()
			var inflation float64
			cells := 0
			for i := 0; i < b.N; i++ {
				rep, err := essdsim.RunNeighborScenario(context.Background(), sweep)
				if err != nil {
					b.Fatal(err)
				}
				cells = len(rep.Cells)
				inflation = 0
				for _, c := range rep.Cells {
					if c.P999Inflation > inflation {
						inflation = c.P999Inflation
					}
				}
			}
			reportCells(b, cells)
			b.ReportMetric(inflation, "victim-p999-x")
		})
	}
}

// BenchmarkFleetPack measures fleet packing-study throughput: eight
// tenants placed by all four policies onto two backends (ten
// simulation cells including the two solo controls). cells/sec is the
// perf-trajectory metric for many-backend simulation; the violation-gap
// metric pins that first-fit's dense placement keeps costing more p99.9
// violations than interference-aware placement at equal density — the
// placement signal the suite exists to measure.
//
// Run: go test -bench=FleetPack -benchtime=1x
func BenchmarkFleetPack(b *testing.B) {
	spec := essdsim.FleetSpec{
		Demands:  fleet.SyntheticDemands(8, 2),
		Backends: 2,
		SLOP999:  5 * essdsim.Millisecond,
		Seed:     7,
	}
	b.ReportAllocs()
	cells, gap := 0, 0
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		cells = rep.Cells
		gap = rep.Policy("first-fit").P999Violations - rep.Policy("interference").P999Violations
	}
	reportCells(b, cells)
	b.ReportMetric(float64(gap), "violation-gap")
}

// BenchmarkChurnEpochs measures churn control-plane throughput: a
// six-tenant catalog through three control epochs of seeded lifecycle
// events with threshold rebalancing, every epoch's backend populations
// simulated through one deduplicated sweep. cells/sec is the
// perf-trajectory metric (comparable to FleetPack — the churn plane
// rides the same cell machinery); cells/epoch tracks how well the
// timeline dedups.
//
// Run: go test -bench=ChurnEpochs -benchtime=1x
func BenchmarkChurnEpochs(b *testing.B) {
	spec := essdsim.ChurnSpec{
		Fleet: essdsim.FleetSpec{
			Demands:  fleet.SyntheticDemands(6, 1),
			Backends: 2,
			SLOP999:  5 * essdsim.Millisecond,
			Horizon:  500 * essdsim.Millisecond,
			Seed:     11,
		},
		Epochs:     3,
		ChurnRate:  1.5,
		Rebalancer: essdsim.ThresholdRebalance{},
	}
	b.ReportAllocs()
	cells, epochs := 0, 0
	for i := 0; i < b.N; i++ {
		rep, err := essdsim.RunChurn(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		cells, epochs = rep.Cells, len(rep.Epochs)
	}
	reportCells(b, cells)
	if epochs > 0 {
		b.ReportMetric(float64(cells)/float64(epochs), "cells/epoch")
	}
}

// BenchmarkSweepCacheOverhead measures what attaching a cold SweepCache
// costs a sweep that gets no hits from it: each iteration runs the
// identical fleet study with no cache and with a fresh cache (every cell
// stored, the whole cache persisted once), and the overhead-% metric is
// the relative wall-clock difference. With the store path free of
// serialization and persistence deferred to one Save per sweep, the
// overhead stays in the low single digits (<5%).
//
// Run: go test -bench=SweepCacheOverhead -benchtime=3x
func BenchmarkSweepCacheOverhead(b *testing.B) {
	b.ReportAllocs()
	spec := essdsim.FleetSpec{
		Demands:  fleet.SyntheticDemands(8, 2),
		Backends: 2,
		SLOP999:  5 * essdsim.Millisecond,
		Seed:     7,
	}
	runBare := func() int {
		rep, err := fleet.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		return rep.Cells
	}
	runCached := func() {
		cold := spec
		cold.Cache = essdsim.NewSweepCache(0)
		if _, err := fleet.Run(context.Background(), cold); err != nil {
			b.Fatal(err)
		}
		if err := cold.Cache.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	cells := runBare() // warm code paths before timing
	runCached()
	b.ResetTimer()

	var bare, cached time.Duration
	for i := 0; i < b.N; i++ {
		// Alternate which variant runs first so slow machine-level drift
		// (a shared VM's throughput wandering) cancels out of the delta.
		for pass := 0; pass < 2; pass++ {
			t0 := time.Now()
			if (pass == 0) == (i%2 == 0) {
				runBare()
				bare += time.Since(t0)
			} else {
				runCached()
				cached += time.Since(t0)
			}
		}
	}
	reportCells(b, 2*cells)
	b.ReportMetric(100*(cached.Seconds()-bare.Seconds())/bare.Seconds(), "overhead-%")
}

// BenchmarkEngineThroughput measures raw simulator event throughput.
func BenchmarkEngineThroughput(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(sim.Duration(i%1000), func() {})
		if i%1024 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	reportCells(b, 1)
}

// BenchmarkDeviceIO measures simulated I/O cost per operation for each
// device profile (simulator performance, not device performance).
func BenchmarkDeviceIO(b *testing.B) {
	for _, name := range []string{"ssd", "essd1", "essd2"} {
		b.Run(name, func(b *testing.B) {
			eng := essdsim.NewEngine()
			dev, err := essdsim.NewDevice(name, eng, 1)
			if err != nil {
				b.Fatal(err)
			}
			essdsim.Precondition(dev, true)
			b.ReportAllocs()
			b.ResetTimer()
			inflight := 0
			for i := 0; i < b.N; i++ {
				inflight++
				dev.Submit(&essdsim.Request{
					Op:     essdsim.OpWrite,
					Offset: int64(i%1024) * 4096,
					Size:   4096,
					OnComplete: func(r *essdsim.Request, at essdsim.Time) {
						inflight--
					},
				})
				if inflight >= 64 {
					eng.Run()
				}
			}
			eng.Run()
			reportCells(b, 1)
		})
	}
}

// BenchmarkFleetScreen measures the two-fidelity screen: thousands of
// analytically scored placements funneled into a handful of frontier
// simulations. cells/sec counts the simulated frontier cells; the
// screened-per-sim metric is the screen's leverage — how many candidate
// placements each expensive simulation stands in for.
//
// Run: go test -bench=FleetScreen -benchtime=1x
func BenchmarkFleetScreen(b *testing.B) {
	b.ReportAllocs()
	spec := fleet.ScreenSpec{
		Spec: essdsim.FleetSpec{
			Demands:  fleet.SyntheticDemands(8, 2),
			Backends: 2,
			SLOP999:  5 * essdsim.Millisecond,
			Seed:     7,
		},
		Candidates: 1024,
	}
	cells, leverage := 0, 0.0
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Screen(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		cells = rep.Simulated.Cells
		leverage = float64(rep.Candidates) / float64(len(rep.Simulated.Policies))
	}
	reportCells(b, cells)
	b.ReportMetric(leverage, "screened-per-sim")
}

func fmtMB(n int64) string { return fmtN("", int(n)) + "MB" }

func fmtPct(frac float64) string { return fmtN("cleaner", int(frac*100)) + "pct" }

func fmtN(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for v := n; v > 0; v /= 10 {
		digits = string(rune('0'+v%10)) + digits
	}
	return prefix + digits
}
