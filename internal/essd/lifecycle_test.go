package essd

import (
	"fmt"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
)

// submitBurst submits ops random requests on v (sizes 4k–128k, ~30%
// reads), counting completions in *done. It does not run the engine, so
// the burst is still in flight when the caller attaches the next volume.
func submitBurst(v *ESSD, rng *sim.RNG, ops int, done *int) {
	for i := 0; i < ops; i++ {
		op := blockdev.Write
		if rng.Float64() < 0.3 {
			op = blockdev.Read
		}
		bs := int64(4096) << rng.IntN(6)
		off := rng.Int64N((v.Capacity()-bs)/4096) * 4096
		v.Submit(&blockdev.Request{
			Op: op, Offset: off, Size: bs,
			OnComplete: func(*blockdev.Request, sim.Time) { *done++ },
		})
	}
}

// TestBackendAttachInvariant is the lifecycle extension of
// TestBackendAccountingInvariant: under random seeded interleavings of
// volume attaches and I/O bursts, with each attach landing while earlier
// bursts are still in flight, the per-volume attribution must stay
// complete — summing VolumeStats over the attached volumes reproduces
// the backend-wide cluster node totals and fabric byte totals exactly.
// Runs under both fifo and wfq, whose per-flow schedulers gain a flow
// mid-run; the wfq variant is what the -race CI pass leans on.
func TestBackendAttachInvariant(t *testing.T) {
	for _, iso := range []qos.Isolation{{}, {Policy: qos.IsolationWFQ}} {
		iso := iso
		t.Run(iso.Policy.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					checkLifecycleInvariant(t, iso, seed)
				})
			}
		})
	}
}

func checkLifecycleInvariant(t *testing.T, iso qos.Isolation, seed uint64) {
	eng := sim.NewEngine()
	bcfg, vcfg := testConfig().Split()
	bcfg.Isolation = iso
	be := NewBackend(eng, bcfg, sim.NewRNG(seed, 0xbe))
	rng := sim.NewRNG(seed, 0xface)

	var attached []*ESSD
	submitted, done, midRun := 0, 0, 0
	attach := func() {
		if done < submitted {
			midRun++
		}
		cfg := vcfg
		cfg.Name = fmt.Sprintf("vol-%d", len(attached))
		v := be.Attach(cfg, sim.NewRNG(seed, uint64(100+len(attached))))
		v.Precondition(1) // every write overwrites, so churn always adds debt
		attached = append(attached, v)
	}
	attach()
	attach()

	for step := 0; step < 30; step++ {
		if rng.Float64() < 0.25 && len(attached) < 5 {
			attach()
			continue
		}
		v := attached[rng.IntN(len(attached))]
		ops := 20 + rng.IntN(60)
		submitted += ops
		submitBurst(v, rng, ops, &done)
		// Advance part of the way, leaving requests in flight.
		for n := rng.IntN(400); n > 0 && eng.Step(); n-- {
		}
	}
	eng.Run()
	if done != submitted {
		t.Fatalf("%d of %d requests completed", done, submitted)
	}
	if midRun == 0 {
		t.Fatal("no volume attached while I/O was in flight")
	}
	if len(be.Volumes()) != len(attached) {
		t.Fatalf("backend reports %d volumes, test tracked %d",
			len(be.Volumes()), len(attached))
	}

	var sum VolumeStats
	var debtAdded int64
	tally := func(vs VolumeStats) {
		sum.Writes += vs.Writes
		sum.Reads += vs.Reads
		sum.WriteBytes += vs.WriteBytes
		sum.ReadBytes += vs.ReadBytes
		sum.FabricUp += vs.FabricUp
		sum.FabricDown += vs.FabricDown
		debtAdded += vs.DebtAdded
	}
	for _, vs := range be.VolumeStats() {
		tally(vs)
	}

	cl := be.Cluster()
	var nodeWrites, nodeReads uint64
	var nodeWriteBytes, nodeReadBytes int64
	for i := 0; i < cl.NumNodes(); i++ {
		ns := cl.NodeStats(i)
		nodeWrites += ns.Writes
		nodeReads += ns.Reads
		nodeWriteBytes += ns.WriteBytes
		nodeReadBytes += ns.ReadBytes
	}
	if sum.Writes != nodeWrites || sum.Reads != nodeReads {
		t.Errorf("cluster ops: flows %d/%d writes/reads, nodes %d/%d",
			sum.Writes, sum.Reads, nodeWrites, nodeReads)
	}
	if sum.WriteBytes != nodeWriteBytes || sum.ReadBytes != nodeReadBytes {
		t.Errorf("cluster bytes: flows %d/%d, nodes %d/%d",
			sum.WriteBytes, sum.ReadBytes, nodeWriteBytes, nodeReadBytes)
	}
	net := be.Network()
	if sum.FabricUp != net.MovedUp() || sum.FabricDown != net.MovedDown() {
		t.Errorf("fabric bytes: flows %d/%d up/down, network %d/%d",
			sum.FabricUp, sum.FabricDown, net.MovedUp(), net.MovedDown())
	}
	if debtAdded <= 0 {
		t.Error("lifecycle churn attributed no cleaning debt")
	}
	if be.Debt() > debtAdded {
		t.Errorf("pooled debt %d exceeds the %d attributed by flows", be.Debt(), debtAdded)
	}
}
