package workload_test

import (
	"testing"

	"essdsim/internal/essd"
	"essdsim/internal/profiles"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// checkSteadyState warms the devices with a run of 8n requests, then
// counts the allocations of a run of n and of 2n requests, each after a
// warm-up run of its own size (testing.AllocsPerRun makes one). A run's
// set-up is the same at both sizes, so the difference is what the extra
// requests cost, plus whatever grows to a new high-water mark in the
// longer run: a queue's backing array, or the generators' request records
// up to a higher peak of outstanding requests. That growth is a few
// allocations however many requests run, so the gate allows fewer than
// one allocation per 20 extra requests; a request that allocates costs at
// least n.
func checkSteadyState(t *testing.T, n uint64, run func(n uint64)) {
	t.Helper()
	run(8 * n)
	short := testing.AllocsPerRun(1, func() { run(n) })
	long := testing.AllocsPerRun(1, func() { run(2 * n) })
	if long-short >= float64(n)/20 {
		t.Fatalf("%d more requests per generator made %v more allocations (%v for %d requests each, %v for %d)",
			n, long-short, short, n, long, 2*n)
	}
}

// TestSteadyStateAllocs is the allocation gate of the request path: once
// the devices, engine and generators are warm, extra requests on an
// open-loop tenant of a shared backend (fifo and wfq) and on a
// closed-loop run allocate nothing per request.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, pol := range []qos.IsolationPolicy{qos.IsolationFIFO, qos.IsolationWFQ} {
		t.Run("open/"+pol.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			rng := sim.NewRNG(3, 3^0x5c)
			bcfg := profiles.NeighborBackendConfig()
			bcfg.Isolation = qos.Isolation{Policy: pol}
			be := essd.NewBackend(eng, bcfg, rng.Derive("backend"))
			victim := be.Attach(profiles.NeighborVolumeConfig("victim"), rng)
			aggr := be.Attach(profiles.NeighborVolumeConfig("aggr"), rng)
			victim.Precondition(1)
			aggr.Precondition(1)
			var seed uint64
			checkSteadyState(t, 300, func(n uint64) {
				seed++
				// One timeline bucket at either size, so the series do
				// not grow with the run.
				vspec := workload.OpenSpec{
					Pattern: workload.Mixed, BlockSize: 64 << 10, WriteRatio: 0.5,
					RatePerSec: 1000, Arrival: workload.Uniform, Count: n,
					SampleInterval: 100 * sim.Second, Seed: seed,
				}
				aspec := workload.OpenSpec{
					Pattern: workload.RandWrite, BlockSize: 256 << 10,
					RatePerSec: 800, Arrival: workload.Poisson, Count: n,
					SampleInterval: 100 * sim.Second, Seed: seed ^ 0x1660,
				}
				workload.RunTenants(eng, []workload.Tenant{
					{Name: "victim", Dev: victim, Open: &vspec},
					{Name: "aggr", Dev: aggr, Open: &aspec},
				})
			})
		})
	}
	t.Run("closed", func(t *testing.T) {
		dev := profiles.NewESSD1(sim.NewEngine(), sim.NewRNG(5, 5^0x5c))
		dev.Precondition(1)
		var seed uint64
		checkSteadyState(t, 500, func(n uint64) {
			seed++
			// Under a second of simulated time at either size: one
			// timeline bucket.
			workload.Run(dev, workload.Spec{
				Pattern: workload.Mixed, BlockSize: 16 << 10, WriteRatio: 0.5,
				QueueDepth: 8, MaxOps: n, Seed: seed,
			})
		})
	})
}
