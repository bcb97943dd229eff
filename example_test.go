package essdsim_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"essdsim"
)

// Example measures Observation #1, the ESSD/SSD latency gap, and how
// scaling I/O size and queue depth shrinks it (Implication #1): random
// writes on the calibrated ESSD-1 volume and the local SSD, measured in
// deterministic virtual time.
func Example() {
	fmt.Println("The unwritten contract, Observation #1:")
	fmt.Println("ESSD latency is tens of times the local SSD's until I/O is scaled up.")
	fmt.Println()
	fmt.Printf("%-14s %-14s %-14s %s\n", "bs/QD", "ESSD-1 avg", "SSD avg", "gap")
	cells := []struct {
		bs int64
		qd int
	}{
		{4 << 10, 1},    // small and shallow: the worst case
		{4 << 10, 16},   // deeper queue
		{256 << 10, 1},  // bigger I/O
		{256 << 10, 16}, // both: the gap nearly closes
	}
	for _, c := range cells {
		var mean [2]essdsim.Duration
		for i, name := range []string{"essd1", "ssd"} {
			dev, err := essdsim.NewDevice(name, essdsim.NewEngine(), 42)
			if err != nil {
				fmt.Println(err)
				return
			}
			essdsim.Precondition(dev, true)
			res := essdsim.Run(dev, essdsim.Workload{
				Pattern:    essdsim.RandWrite,
				BlockSize:  c.bs,
				QueueDepth: c.qd,
				Duration:   400 * essdsim.Millisecond,
				Warmup:     50 * essdsim.Millisecond,
				Seed:       42,
			})
			mean[i] = res.Lat.Summarize().Mean
		}
		fmt.Printf("%-14s %-14v %-14v %.1fx\n", fmt.Sprintf("%dK / QD%d", c.bs>>10, c.qd),
			mean[0], mean[1], float64(mean[0])/float64(mean[1]))
	}
	fmt.Println()
	fmt.Println("Implication #1: batch and deepen your I/O before moving to the cloud —")
	fmt.Println("the 4K/QD1 path that is harmless on a local SSD costs tens of times more on an ESSD.")
	// Output:
	// The unwritten contract, Observation #1:
	// ESSD latency is tens of times the local SSD's until I/O is scaled up.
	//
	// bs/QD          ESSD-1 avg     SSD avg        gap
	// 4K / QD1       282.8µs        6.2µs          45.2x
	// 4K / QD16      285.3µs        27.0µs         10.6x
	// 256K / QD1     483.4µs        107.4µs        4.5x
	// 256K / QD16    1.35ms         1.74ms         0.8x
	//
	// Implication #1: batch and deepen your I/O before moving to the cloud —
	// the 4K/QD1 path that is harmless on a local SSD costs tens of times more on an ESSD.
}

// ExampleRunSweep declares a write workload's size × queue-depth ×
// {random, sequential} grid on ESSD-2 as one Sweep, measures it on the
// default worker pool, and reports where random writes beat sequential
// writes (Observation #3): whether log-structuring still pays
// (Implication #3).
func ExampleRunSweep() {
	sizes := []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	qds := []int{1, 8, 32}
	results, err := essdsim.RunSweep(context.Background(), essdsim.Sweep{
		Devices:      essdsim.ProfileDevices("essd2"),
		Patterns:     []essdsim.Pattern{essdsim.RandWrite, essdsim.SeqWrite},
		BlockSizes:   sizes,
		QueueDepths:  qds,
		CellDuration: 300 * essdsim.Millisecond,
		Warmup:       50 * essdsim.Millisecond,
		Precondition: essdsim.PrecondWrites,
		Seed:         3,
		Label:        "patternadvisor", // the label feeds every cell seed
	}, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Pattern is the outermost axis after the (single) device: the first
	// half of the results is the random sweep, the second the sequential
	// sweep, both in (size, qd) row-major order.
	half := len(results) / 2

	fmt.Println(`Random-vs-sequential write advisor for "essd2"`)
	fmt.Println("(gain > 1: random writes are FASTER than sequential — Observation #3)")
	fmt.Println()
	fmt.Printf("%-8s", "bs\\QD")
	for _, qd := range qds {
		fmt.Printf("%10d", qd)
	}
	fmt.Println()
	best, bestBS, bestQD := 0.0, int64(0), 0
	for i, rnd := range results[:half] {
		if i%len(qds) == 0 {
			fmt.Printf("%-8s", fmt.Sprintf("%dK", rnd.BlockSize>>10))
		}
		gain := rnd.Res.Throughput() / results[i+half].Res.Throughput()
		if gain > best {
			best, bestBS, bestQD = gain, rnd.BlockSize, rnd.QueueDepth
		}
		fmt.Printf("%9.2fx", gain)
		if i%len(qds) == len(qds)-1 {
			fmt.Println()
		}
	}
	fmt.Println()
	switch {
	case best >= 1.5:
		fmt.Printf("Max gain %.2fx at %dK/QD%d: converting random writes to sequential\n",
			best, bestBS>>10, bestQD)
		fmt.Println("(log-structuring, copy-on-write) actively HURTS on this volume.")
		fmt.Println("Consider spreading writes across the LBA space instead (Implication #3).")
	case best >= 1.1:
		fmt.Printf("Max gain %.2fx at %dK/QD%d: sequentializing buys nothing here;\n",
			best, bestBS>>10, bestQD)
		fmt.Println("keep update-in-place layouts as they are (Implication #3).")
	default:
		fmt.Printf("Max gain %.2fx: this device is pattern-neutral for writes.\n", best)
	}
	// Output:
	// Random-vs-sequential write advisor for "essd2"
	// (gain > 1: random writes are FASTER than sequential — Observation #3)
	//
	// bs\QD            1         8        32
	// 4K           1.00x     1.69x     2.56x
	// 16K          1.00x     2.02x     2.17x
	// 64K          1.03x     2.24x     1.08x
	// 256K         0.99x     1.23x     1.00x
	//
	// Max gain 2.56x at 4K/QD32: converting random writes to sequential
	// (log-structuring, copy-on-write) actively HURTS on this volume.
	// Consider spreading writes across the LBA space instead (Implication #3).
}

// ExampleReplayTrace shows Implication #4: ESSD bandwidth is a
// deterministic provisioned budget (Observation #4), so bursty I/O above
// it only buys queueing delay. The same 80 MiB/s of 1 MiB writes is
// replayed as a trace on three budget tiers, once with each second's I/O
// issued at its start and once evenly paced: the smoothed timeline meets
// the same deadline on the cheapest tier.
func ExampleReplayTrace() {
	const iosPerSec, seconds = 80, 5
	fmt.Println("Implication #4: smooth I/O below the provisioned budget.")
	fmt.Printf("Offered load: %d MiB/s of 1 MiB writes for %d seconds.\n\n", iosPerSec, seconds)
	fmt.Printf("%-28s %-12s %-14s %s\n", "volume / arrival shape", "budget", "p99 latency", "makespan")
	tiers := []struct{ name, budget string }{
		{"essd1", "3.0 GB/s"}, // over-provisioned for this load
		{"gp3", "1.0 GB/s"},   // cheaper tier, still 12x the offered load
		{"pl1", "0.35 GB/s"},  // cheapest tier: 4.4x the offered load
	}
	for _, tier := range tiers {
		for _, shape := range []string{"bursty", "smooth"} {
			dev, err := essdsim.NewDevice(tier.name, essdsim.NewEngine(), 9)
			if err != nil {
				fmt.Println(err)
				return
			}
			essdsim.Precondition(dev, true)
			recs := make([]essdsim.TraceRecord, 0, iosPerSec*seconds)
			for i := 0; i < iosPerSec*seconds; i++ {
				at := essdsim.Duration(i/iosPerSec) * essdsim.Second
				if shape == "smooth" {
					at = essdsim.Duration(i) * essdsim.Second / iosPerSec
				}
				recs = append(recs, essdsim.TraceRecord{
					At: at, Op: essdsim.OpWrite, Offset: int64(i%1024) * (4 << 20), Size: 1 << 20,
				})
			}
			// Latency counts from each I/O's intended issue time.
			res := essdsim.ReplayTrace(dev, recs)
			fmt.Printf("%-28s %-12s %-14v %v\n",
				tier.name+" / "+shape, tier.budget, res.Lat.Percentile(99), res.Elapsed)
		}
	}
	fmt.Println()
	fmt.Println("Reading the table: on the big budget both shapes are fine. On the small")
	fmt.Println("budget the bursty shape queues behind the token bucket (p99 explodes),")
	fmt.Println("while the smoothed shape fits the same work under the same cheap budget.")
	// Output:
	// Implication #4: smooth I/O below the provisioned budget.
	// Offered load: 80 MiB/s of 1 MiB writes for 5 seconds.
	//
	// volume / arrival shape       budget       p99 latency    makespan
	// essd1 / bursty               3.0 GB/s     25.95ms        4.026s
	// essd1 / smooth               3.0 GB/s     1.16ms         4.989s
	// gp3 / bursty                 1.0 GB/s     68.16ms        4.068s
	// gp3 / smooth                 1.0 GB/s     1.16ms         4.989s
	// pl1 / bursty                 0.35 GB/s    219.06ms       4.219s
	// pl1 / smooth                 0.35 GB/s    3.38ms         4.991s
	//
	// Reading the table: on the big budget both shapes are fine. On the small
	// budget the bursty shape queues behind the token bucket (p99 explodes),
	// while the smoothed shape fits the same work under the same cheap budget.
}

// ExampleRequest drives a device with raw Requests to re-evaluate I/O
// reduction on cloud storage (Implication #5). A compressor with ratio
// 2.0 costs 40 µs of CPU per 16 KiB block, scheduled on the engine ahead
// of each write: on a local SSD it loses on latency because the medium is
// faster than the compressor; behind an ESSD's network latency it is
// latency-neutral, and it halves the bytes charged against the
// provisioned budget.
func ExampleRequest() {
	const logicalBlock, compressRatio = 16 << 10, 2.0
	const compressCPU = 40 * essdsim.Microsecond
	// ingest writes blocks logical blocks at queue depth qd and returns the
	// mean per-block latency, counted from before compression starts, and
	// the makespan.
	ingest := func(name string, compressed bool, blocks, qd int) (avg, makespan essdsim.Duration, err error) {
		dev, err := essdsim.NewDevice(name, essdsim.NewEngine(), 13)
		if err != nil {
			return 0, 0, err
		}
		essdsim.Precondition(dev, true)
		eng := dev.Engine()
		ioSize := int64(logicalBlock)
		if compressed {
			bs := int64(dev.BlockSize())
			ioSize = (int64(float64(logicalBlock)/compressRatio) + bs - 1) / bs * bs
		}
		var total essdsim.Duration
		done, inflight, next := 0, 0, 0
		var submit func()
		submit = func() {
			for inflight < qd && next < blocks {
				next++
				inflight++
				issue := eng.Now()
				off := int64(next%1024) * (4 << 20)
				start := func() {
					dev.Submit(&essdsim.Request{
						Op:     essdsim.OpWrite,
						Offset: off,
						Size:   ioSize,
						OnComplete: func(r *essdsim.Request, at essdsim.Time) {
							total += at.Sub(issue)
							done++
							inflight--
							submit()
						},
					})
				}
				if compressed {
					eng.Schedule(compressCPU, start) // CPU on the critical path
				} else {
					start()
				}
			}
		}
		submit()
		eng.Run()
		return total / essdsim.Duration(done), eng.Now().Sub(0), nil
	}

	fmt.Println("Implication #5: re-evaluate I/O reduction (compression) for ESSDs.")
	fmt.Printf("%dK blocks, ratio %.1fx, %v CPU per block on the critical path.\n",
		logicalBlock>>10, compressRatio, compressCPU)
	fmt.Println("\n(1) Latency-bound: single outstanding write (QD1).")
	fmt.Printf("%-10s %-14s %-14s %s\n", "device", "raw avg", "compressed avg", "latency verdict")
	for _, name := range []string{"ssd", "essd2"} {
		raw, _, errRaw := ingest(name, false, 512, 1)
		comp, _, errComp := ingest(name, true, 512, 1)
		if err := errors.Join(errRaw, errComp); err != nil {
			fmt.Println(err)
			return
		}
		verdict := "compression is ~free"
		if comp > raw*3/2 {
			verdict = "compression HURTS"
		} else if comp < raw {
			verdict = "compression wins"
		}
		fmt.Printf("%-10s %-14v %-14v %s\n", name, raw, comp, verdict)
	}
	fmt.Println("\n(2) Budget-bound: bulk ingest of 256 MiB at QD16.")
	fmt.Printf("%-10s %-14s %-14s %s\n", "device", "raw makespan", "compressed", "bytes billed")
	for _, name := range []string{"ssd", "essd2"} {
		_, raw, errRaw := ingest(name, false, (256<<20)/logicalBlock, 16)
		_, comp, errComp := ingest(name, true, (256<<20)/logicalBlock, 16)
		if err := errors.Join(errRaw, errComp); err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-10s %-14v %-14v halved\n", name, raw, comp)
	}
	fmt.Println()
	fmt.Println("At QD1 the local SSD exposes the compressor (40µs CPU vs ~10µs write);")
	fmt.Println("the ESSD's network latency hides it. Under bulk load the ESSD's token-")
	fmt.Println("bucket budget is the ceiling (Observation #4), so halving bytes cuts")
	fmt.Println("the makespan (until the IOPS budget binds) and halves the bytes the")
	fmt.Println("throughput budget — and the bill — must be sized for.")
	// Output:
	// Implication #5: re-evaluate I/O reduction (compression) for ESSDs.
	// 16K blocks, ratio 2.0x, 40.0µs CPU per block on the critical path.
	//
	// (1) Latency-bound: single outstanding write (QD1).
	// device     raw avg        compressed avg latency verdict
	// ssd        9.8µs          47.5µs         compression HURTS
	// essd2      162.2µs        175.7µs        compression is ~free
	//
	// (2) Budget-bound: bulk ingest of 256 MiB at QD16.
	// device     raw makespan   compressed     bytes billed
	// ssd        81.84ms        52.04ms        halved
	// essd2      228.93ms       181.32ms       halved
	//
	// At QD1 the local SSD exposes the compressor (40µs CPU vs ~10µs write);
	// the ESSD's network latency hides it. Under bulk load the ESSD's token-
	// bucket budget is the ceiling (Observation #4), so halving bytes cuts
	// the makespan (until the IOPS budget binds) and halves the bytes the
	// throughput budget — and the bill — must be sized for.
}

// ExampleRunTenantMix attaches two volumes to ONE shared storage backend
// and drives them concurrently inside one engine: a steady victim and a
// bursty write-heavy neighbor. The neighbor's overwrite churn lands in the
// backend's pooled cleaner debt, which the backend attributes per volume.
func ExampleRunTenantMix() {
	eng := essdsim.NewEngine()
	be := essdsim.NewBackend(eng, essdsim.NeighborBackendConfig(), 1)
	victim := essdsim.AttachVolume(be, essdsim.NeighborVolumeConfig("victim"), 2)
	noisy := essdsim.AttachVolume(be, essdsim.NeighborVolumeConfig("noisy"), 3)
	victim.Precondition(1)
	noisy.Precondition(1)
	results := essdsim.RunTenantMix(eng, []essdsim.Tenant{
		{Name: "victim", Dev: victim, Open: &essdsim.OpenWorkload{
			Pattern: essdsim.RandRead, BlockSize: 64 << 10,
			RatePerSec: 300, Arrival: essdsim.ArrivalUniform, Count: 600, Seed: 4,
		}},
		{Name: "noisy", Dev: noisy, Open: &essdsim.OpenWorkload{
			Pattern: essdsim.RandWrite, BlockSize: 256 << 10,
			RatePerSec: 1600, Arrival: essdsim.ArrivalBursty, Count: 3200, Seed: 5,
		}},
	})
	stats := be.VolumeStats()
	fmt.Printf("tenants measured: %d, victim ops=%d, neighbor ops=%d\n",
		len(results), results[0].Open.Ops, results[1].Open.Ops)
	fmt.Printf("pooled debt is the neighbor's: %v (victim added %d bytes)\n",
		stats[1].DebtAdded > 100*stats[0].DebtAdded+1, stats[0].DebtAdded)
	// Output:
	// tenants measured: 2, victim ops=600, neighbor ops=3200
	// pooled debt is the neighbor's: true (victim added 0 bytes)
}

// ExampleRunNeighborScenario runs the noisy-neighbor suite: a steady
// victim tenant and a swept number of bursty aggressors, every volume on
// ONE shared backend (cluster + fabric + background cleaner), the
// disaggregated shape of the paper's Fig 1. It reads the report back to
// answer what a tenant who cannot see their neighbors pays: how far their
// tail inflates, and how much sooner the provider throttles them for
// someone else's cleaner debt. The same tenants on private backends are
// the control that isolates the interference.
func ExampleRunNeighborScenario() {
	rep, err := essdsim.RunNeighborScenario(context.Background(), essdsim.NeighborSweep{
		// Defaults trimmed to one aggressor rate and three aggressor
		// counts (0 = the solo control the inflation columns divide by).
		AggressorCounts:      []int{0, 2, 4},
		AggressorRatesPerSec: []float64{1600},
		VictimOps:            1500,
		Seed:                 7,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	essdsim.FormatNeighborReport(os.Stdout, rep)

	fmt.Println()
	fmt.Println("What the victim experiences as the backend fills up:")
	for _, c := range rep.Cells {
		if c.Aggressors == 0 {
			fmt.Printf("  alone:        p99.9 %8v, never throttled — the single-tenant contract\n",
				c.VictimLat.P999)
			continue
		}
		onset := "never"
		if c.ThrottleOnset >= 0 {
			onset = fmt.Sprintf("at %.2fs", c.ThrottleOnset.Seconds())
		}
		fmt.Printf("  %d neighbors:  p99.9 %8v (%.1fx), throttled %s — %.1f GB of the pooled debt is theirs\n",
			c.Aggressors, c.VictimLat.P999, c.P999Inflation, onset, float64(c.AggrDebt)/1e9)
	}

	// The control: identical tenants, private backends on one engine.
	eng := essdsim.NewEngine()
	var tenants []essdsim.Tenant
	var victim *essdsim.Volume
	for i, name := range []string{"victim", "aggr0", "aggr1"} {
		be := essdsim.NewBackend(eng, essdsim.NeighborBackendConfig(), uint64(100+i))
		vol := essdsim.AttachVolume(be, essdsim.NeighborVolumeConfig(name), uint64(200+i))
		vol.Precondition(1)
		spec := essdsim.OpenWorkload{
			Pattern: essdsim.Mixed, BlockSize: 64 << 10, WriteRatio: 0.5,
			RatePerSec: 300, Arrival: essdsim.ArrivalUniform, Count: 1500,
			Seed: uint64(300 + i),
		}
		if i == 0 {
			victim = vol
		} else { // aggressors: bursty write floods
			spec.BlockSize = 256 << 10
			spec.WriteRatio = 1
			spec.RatePerSec = 1600
			spec.Arrival = essdsim.ArrivalBursty
			spec.Count = 8000
		}
		tenants = append(tenants, essdsim.Tenant{Name: name, Dev: vol, Open: &spec})
	}
	results := essdsim.RunTenantMix(eng, tenants)
	fmt.Println()
	fmt.Printf("Control (same tenants, PRIVATE backends): victim p99.9 %v, throttled=%v\n",
		results[0].Open.Lat.Summarize().P999, victim.Throttled())
	fmt.Println("The gap between that line and the shared-backend rows above is the noisy-neighbor tax.")
	// Output:
	// Noisy-neighbor scenario: victim 64 KiB mixed @ 300 req/s (1500 requests) vs bursty aggressors on one shared backend
	// aggrs    rate/s  wr%   offered   vic-p50   vic-p99 vic-p99.9   p99-x  p999-x  throttle@      debt  aggrMB/s
	//     0      1600  100      0.0M     356µs     762µs     811µs       -       -          -        0M         -
	//     2      1600  100    838.9M     520µs     778µs    2.59ms    1.02    3.19      1.02s     2850M     839.3
	//     4      1600  100   1677.7M     582µs   18.09ms   21.23ms   23.74   26.17      0.00s     6877M    1678.7
	//
	// What the victim experiences as the backend fills up:
	//   alone:        p99.9  811.0µs, never throttled — the single-tenant contract
	//   2 neighbors:  p99.9   2.59ms (3.2x), throttled at 1.02s — 4.2 GB of the pooled debt is theirs
	//   4 neighbors:  p99.9  21.23ms (26.2x), throttled at 0.00s — 8.4 GB of the pooled debt is theirs
	//
	// Control (same tenants, PRIVATE backends): victim p99.9 794.6µs, throttled=false
	// The gap between that line and the shared-backend rows above is the noisy-neighbor tax.
}

// ExampleRunChurn runs an expansion storm through the fleet churn control
// plane. Three bursty writers and one steady victim first-fit onto one
// backend of three; then every writer doubles its rate in the same epoch.
// Three rebalancers face the identical scripted timeline: never-move
// accepts whatever packing the events leave, threshold migrates volumes
// off overloaded backends up to a per-epoch budget, and drain moves one
// volume at a time.
func ExampleRunChurn() {
	writer := func(name string) essdsim.FleetDemand {
		return essdsim.FleetDemand{
			Name: name, RatePerSec: 800, BlockSize: 256 << 10,
			WriteRatioPct: 100, Arrival: essdsim.ArrivalBursty,
		}
	}
	base := essdsim.ChurnSpec{
		Fleet: essdsim.FleetSpec{
			Demands: []essdsim.FleetDemand{
				writer("med0"), writer("med1"), writer("med2"),
				{Name: "ten0", RatePerSec: 300, BlockSize: 64 << 10,
					WriteRatioPct: 50, Arrival: essdsim.ArrivalUniform},
			},
			Backends:   3,
			BackendBps: 700e6,
			SLOP999:    5 * essdsim.Millisecond,
			Horizon:    essdsim.Second,
			Seed:       7,
		},
		Epochs:          4,
		MigrationBudget: 2,
		// The storm: all three writers double at epoch 1, and one of them
		// retires at epoch 2.
		Script: []essdsim.ChurnEvent{
			{Epoch: 1, Kind: essdsim.ChurnExpand, Tenant: "med0"},
			{Epoch: 1, Kind: essdsim.ChurnExpand, Tenant: "med1"},
			{Epoch: 1, Kind: essdsim.ChurnExpand, Tenant: "med2"},
			{Epoch: 2, Kind: essdsim.ChurnDelete, Tenant: "med2"},
		},
	}

	// One shared cache: the runs share every cell their timelines have in
	// common, so the comparison costs little more than one run.
	cache := essdsim.NewSweepCache(4096)
	var reports []*essdsim.ChurnReport
	for _, rb := range []essdsim.Rebalancer{
		essdsim.NeverMove{}, essdsim.ThresholdRebalance{}, essdsim.DrainRebalance{},
	} {
		spec := base
		spec.Fleet.Cache = cache
		spec.Rebalancer = rb
		rep, err := essdsim.RunChurn(context.Background(), spec)
		if err != nil {
			fmt.Println(err)
			return
		}
		essdsim.FormatChurnReport(os.Stdout, rep)
		fmt.Println()
		reports = append(reports, rep)
	}

	fmt.Println("Same storm, same placement, different rebalancers:")
	for _, rep := range reports {
		fmt.Printf("  %-10s %3d p99.9 violations, %2d migrations (%6.0f MB moved)\n",
			rep.Rebalancer, rep.TotalP999Violations,
			rep.TotalMigrations, float64(rep.TotalMoveBytes)/1e6)
	}
	fmt.Println()
	fmt.Println("Migration is the price of keeping a churning fleet packed: never-move")
	fmt.Println("pays it in tail latency instead, and the bill arrives at the tenants.")
	// Output:
	// Fleet churn: 4 epochs of 1.000s on 3 backends (budget 700 MB/s), placement first-fit, rebalance never
	// epoch tenants backends  util% strandedMB  events   moves  p99-viol  p999-viol  throttle  worst-p99
	//     0       4        1     93         51       0       0         3          4         0    190.8ms
	//     1       4        1    183          0       3       0         3          4         0    398.5ms
	//     2       3        1    123          0       1       0         2          3         0    398.5ms
	//     3       3        1    123          0       0       0         2          3         0    398.5ms
	// total: 0 migrations (0 MB moved), 10 p99 violations, 14 p99.9 violations
	//
	// Fleet churn: 4 epochs of 1.000s on 3 backends (budget 700 MB/s), placement first-fit, rebalance threshold
	// epoch tenants backends  util% strandedMB  events   moves  p99-viol  p999-viol  throttle  worst-p99
	//     0       4        1     93         51       0       0         3          4         0    190.8ms
	//     1       4        3     61        822       3       2         3          3         0    398.5ms
	//     2       3        3     41       1241       1       0         2          2         0    398.5ms
	//     3       3        3     41       1241       0       0         2          2         0    398.5ms
	// total: 2 migrations (68719 MB moved), 10 p99 violations, 11 p99.9 violations
	//
	// Fleet churn: 4 epochs of 1.000s on 3 backends (budget 700 MB/s), placement first-fit, rebalance drain
	// epoch tenants backends  util% strandedMB  events   moves  p99-viol  p999-viol  throttle  worst-p99
	//     0       4        1     93         51       0       0         3          4         0    190.8ms
	//     1       4        2     91        281       3       1         3          4         0    398.5ms
	//     2       3        2     61        541       1       0         2          2         0    398.5ms
	//     3       3        2     61        541       0       0         2          2         0    398.5ms
	// total: 1 migrations (34360 MB moved), 10 p99 violations, 12 p99.9 violations
	//
	// Same storm, same placement, different rebalancers:
	//   never       14 p99.9 violations,  0 migrations (     0 MB moved)
	//   threshold   11 p99.9 violations,  2 migrations ( 68719 MB moved)
	//   drain       12 p99.9 violations,  1 migrations ( 34360 MB moved)
	//
	// Migration is the price of keeping a churning fleet packed: never-move
	// pays it in tail latency instead, and the bill arrives at the tenants.
}

// ExampleSearchSLO finds the highest offered write rate the small
// burstable tier can carry under a 20 ms p99, with a sweep cache so the
// probes of the two reported answers (pre-exhaustion and post-cliff) are
// shared rather than re-simulated.
func ExampleSearchSLO() {
	rep, err := essdsim.SearchSLO(context.Background(), essdsim.SLOSearch{
		Device:    essdsim.ProfileDevices("gp2s")[0],
		Pattern:   essdsim.RandWrite,
		BlockSize: 256 << 10,
		MinRate:   200,
		MaxRate:   3000,
		Tolerance: 200,
		Target:    essdsim.SLOTarget{P99: 20 * essdsim.Millisecond},
		Horizon:   3 * essdsim.Second,
		Cache:     essdsim.NewSweepCache(0),
		Seed:      7,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("burstable=%v, burst window carries more than the floor: %v\n",
		rep.Burstable, rep.PreMaxRate > rep.PostMaxRate)
	fmt.Printf("converged within bound: %v\n", rep.Bisections <= 2*rep.MaxBisections())
	// Output:
	// burstable=true, burst window carries more than the floor: true
	// converged within bound: true
}

// ExampleInstrumentDevice traces every 16th request of a short open-loop
// run on ESSD-1 and samples its shared backend's state every millisecond
// of simulated time, then prints the head of both exports: the Chrome
// trace-event JSON that Perfetto loads, and the probe CSV.
func ExampleInstrumentDevice() {
	eng := essdsim.NewEngine()
	dev := essdsim.NewESSD1(eng, 42)
	capture, err := essdsim.InstrumentDevice(dev, "mycell",
		&essdsim.ObsConfig{SampleEvery: 16, ProbeInterval: essdsim.Millisecond})
	if err != nil {
		fmt.Println(err)
		return
	}
	essdsim.Precondition(dev, true)
	essdsim.RunOpen(dev, essdsim.OpenWorkload{
		Pattern: essdsim.RandWrite, BlockSize: 64 << 10, RatePerSec: 2000, Count: 64, Seed: 3,
	})
	caps := []*essdsim.ObsCapture{capture}
	var events, probes bytes.Buffer
	if err := essdsim.WriteTraceEvents(&events, caps); err != nil {
		fmt.Println(err)
		return
	}
	if err := essdsim.WriteProbesCSV(&probes, caps); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d spans; trace events: %.100s...\n", len(capture.Tracer.Spans()), events.String())
	rows := strings.Split(probes.String(), "\n")
	fmt.Printf("%d probe rows:\n%s\n", len(rows)-2, strings.Join(rows[:4], "\n"))
	// Output:
	// 44 spans; trace events: {"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name...
	// 3286 probe rows:
	// cell,t_s,probe,value
	// mycell,0.001,cluster/debt_bytes,0
	// mycell,0.001,cluster/debt/ESSD-1 (AWS io2),0
	// mycell,0.001,cluster/n0/write/qlen,0
}
