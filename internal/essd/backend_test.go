package essd

import (
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// attachTwo builds one shared backend with two attached volumes.
func attachTwo(t *testing.T) (*sim.Engine, *Backend, *ESSD, *ESSD) {
	t.Helper()
	eng := sim.NewEngine()
	bcfg, vcfg := testConfig().Split()
	be := NewBackend(eng, bcfg, sim.NewRNG(1, 2))
	a := vcfg
	a.Name = "vol-a"
	b := vcfg
	b.Name = "vol-b"
	va := be.Attach(a, sim.NewRNG(3, 4))
	vb := be.Attach(b, sim.NewRNG(5, 6))
	return eng, be, va, vb
}

func write(t *testing.T, eng *sim.Engine, dev blockdev.Device, off, size int64) {
	t.Helper()
	done := false
	dev.Submit(&blockdev.Request{
		Op: blockdev.Write, Offset: off, Size: size,
		OnComplete: func(*blockdev.Request, sim.Time) { done = true },
	})
	eng.Run()
	if !done {
		t.Fatal("write did not complete")
	}
}

// TestBackendSharedInstances checks that attached volumes really share the
// one cluster and network, while the single-volume constructor still gets
// a private pair.
func TestBackendSharedInstances(t *testing.T) {
	_, be, va, vb := attachTwo(t)
	if va.Backend().Cluster() != vb.Backend().Cluster() || va.Backend().Cluster() != be.Cluster() {
		t.Fatal("attached volumes do not share the backend cluster")
	}
	if va.Backend() != vb.Backend() || va.Backend() != be {
		t.Fatal("attached volumes do not share the backend")
	}
	if len(be.Volumes()) != 2 {
		t.Fatalf("backend has %d volumes, want 2", len(be.Volumes()))
	}

	e1 := New(sim.NewEngine(), testConfig(), sim.NewRNG(1, 1))
	e2 := New(sim.NewEngine(), testConfig(), sim.NewRNG(1, 1))
	if e1.Backend().Cluster() == e2.Backend().Cluster() {
		t.Fatal("single-volume constructor shared a cluster")
	}
	if len(e1.Backend().Volumes()) != 1 {
		t.Fatal("single-volume backend should hold exactly its own volume")
	}
}

// TestBackendDebtPools checks the Obs#2 coupling: overwrite debt from both
// volumes lands in one pooled cleaner backlog that each volume's flow
// limiter observes, while per-volume accounting attributes the
// contributions.
func TestBackendDebtPools(t *testing.T) {
	eng, be, va, vb := attachTwo(t)
	va.Precondition(1)
	vb.Precondition(1)
	const n = 1 << 20
	write(t, eng, va, 0, n) // overwrite: n bytes of debt from vol-a
	write(t, eng, vb, 0, n) // n more from vol-b
	write(t, eng, vb, n, n) // and another n from vol-b
	debt := be.Debt()
	if debt <= 0 || debt > 3*n {
		t.Fatalf("pooled debt = %d, want in (0, %d]", debt, 3*n)
	}
	stats := be.VolumeStats()
	if stats[0].Name != "vol-a" || stats[1].Name != "vol-b" {
		t.Fatalf("volume stats order: %q, %q", stats[0].Name, stats[1].Name)
	}
	if stats[0].DebtAdded != n {
		t.Fatalf("vol-a debt = %d, want %d", stats[0].DebtAdded, n)
	}
	if stats[1].DebtAdded != 2*n {
		t.Fatalf("vol-b debt = %d, want %d", stats[1].DebtAdded, 2*n)
	}
	if got := va.BackendUse().DebtAdded; got != n {
		t.Fatalf("vol-a BackendUse debt = %d, want %d", got, n)
	}
}

// TestBackendPerVolumeAccounting checks that cluster operations and fabric
// bytes are attributed to the issuing volume only.
func TestBackendPerVolumeAccounting(t *testing.T) {
	eng, be, va, vb := attachTwo(t)
	va.Precondition(1)
	vb.Precondition(1)
	const n = 256 << 10
	write(t, eng, va, 0, n)
	stats := be.VolumeStats()
	if stats[0].WriteBytes != n || stats[0].Writes == 0 {
		t.Fatalf("vol-a cluster accounting = %+v", stats[0])
	}
	if stats[1].WriteBytes != 0 || stats[1].Writes != 0 {
		t.Fatalf("idle vol-b charged with cluster writes: %+v", stats[1])
	}
	if stats[0].FabricUp != n {
		t.Fatalf("vol-a fabric up = %d, want %d", stats[0].FabricUp, n)
	}
	if stats[1].FabricUp != 0 {
		t.Fatalf("idle vol-b charged with fabric bytes: %d", stats[1].FabricUp)
	}
	// The shared network moved exactly the sum of the flows.
	if be.Network().MovedUp() != stats[0].FabricUp+stats[1].FabricUp {
		t.Fatalf("network total %d != flow sum", be.Network().MovedUp())
	}
	_ = vb
}

// TestCrossTenantThrottle checks that one volume's churn alone can push a
// quiet volume over its flow-limiter threshold: the cross-tenant face of
// Observation #2. The quiet volume provisions a tighter spare margin, so
// the neighbor's pooled debt crosses its threshold first.
func TestCrossTenantThrottle(t *testing.T) {
	eng := sim.NewEngine()
	bcfg, vcfg := testConfig().Split()
	be := NewBackend(eng, bcfg, sim.NewRNG(1, 2))
	a := vcfg
	a.Name = "vol-a"
	b := vcfg
	b.Name = "vol-b"
	b.SpareFrac = 0.05 // ≈54 MB of pooled debt engages vol-b's limiter
	va := be.Attach(a, sim.NewRNG(3, 4))
	vb := be.Attach(b, sim.NewRNG(5, 6))
	va.Precondition(1)
	vb.Precondition(1)
	// vol-a floods overwrites; the cleaner (0.5 GB/s) drains some between
	// writes but the accumulated pool still dwarfs vol-b's margin while
	// staying under vol-a's own 512 MiB threshold.
	const chunk = 1 << 20
	for off := int64(0); off < 400<<20; off += chunk {
		write(t, eng, va, off%(1<<30), chunk)
	}
	if va.Throttled() {
		t.Fatal("aggressor throttled below its own threshold")
	}
	if vb.Throttled() {
		t.Fatal("quiet volume throttled before observing any write")
	}
	// One small write makes vol-b's limiter observe the pooled debt.
	write(t, eng, vb, 0, 4096)
	if !vb.Throttled() {
		t.Fatalf("quiet volume not throttled by neighbor debt (pooled %d)", va.Backend().Debt())
	}
	if vb.BackendUse().DebtAdded != 4096 {
		t.Fatalf("vol-b contributed %d, want 4096", vb.BackendUse().DebtAdded)
	}
}

// TestAttachValidates checks Attach rejects volumes whose block geometry
// does not fit the backend's placement chunk.
func TestAttachValidates(t *testing.T) {
	eng := sim.NewEngine()
	bcfg, vcfg := testConfig().Split()
	be := NewBackend(eng, bcfg, nil)
	vcfg.BlockSize = 3000 // not a divisor of the chunk
	defer func() {
		if recover() == nil {
			t.Fatal("Attach accepted a volume whose block size does not divide the chunk")
		}
	}()
	be.Attach(vcfg, nil)
}

// TestBackendAccountingInvariant drives a three-tenant mix through one
// shared backend and asserts that the per-volume attribution is complete:
// summing VolumeStats over every attached volume reproduces the
// backend-wide cluster totals (primary operations and payload bytes per
// node) and the fabric totals (bytes moved per direction). Nothing a
// tenant does may escape its flow accounting — the fleet suite's
// per-backend reports are built on exactly this bookkeeping.
func TestBackendAccountingInvariant(t *testing.T) {
	eng := sim.NewEngine()
	bcfg, vcfg := testConfig().Split()
	be := NewBackend(eng, bcfg, sim.NewRNG(11, 12))
	var tenants []workload.Tenant
	for i, shape := range []struct {
		name  string
		ratio float64
		rate  float64
		bs    int64
	}{
		{"steady", 0.5, 400, 16 << 10},
		{"reader", 0, 300, 64 << 10},
		{"churner", 1, 600, 128 << 10},
	} {
		cfg := vcfg
		cfg.Name = shape.name
		vol := be.Attach(cfg, sim.NewRNG(uint64(20+i), uint64(30+i)))
		vol.Precondition(1)
		tenants = append(tenants, workload.Tenant{
			Name: shape.name,
			Dev:  vol,
			Open: &workload.OpenSpec{
				Pattern:    workload.Mixed,
				BlockSize:  shape.bs,
				WriteRatio: shape.ratio,
				RatePerSec: shape.rate,
				Arrival:    workload.Poisson,
				Count:      400,
				Seed:       uint64(100 + i),
			},
		})
	}
	results := workload.RunTenants(eng, tenants)
	for _, r := range results {
		if r.Open.Ops == 0 {
			t.Fatalf("tenant %s completed nothing", r.Name)
		}
	}

	var flow VolumeStats
	var debtAdded int64
	for _, vs := range be.VolumeStats() {
		flow.Writes += vs.Writes
		flow.Reads += vs.Reads
		flow.WriteBytes += vs.WriteBytes
		flow.ReadBytes += vs.ReadBytes
		flow.FabricUp += vs.FabricUp
		flow.FabricDown += vs.FabricDown
		debtAdded += vs.DebtAdded
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
	if flow.Writes != nodeWrites || flow.Reads != nodeReads {
		t.Errorf("cluster ops: flows %d/%d writes/reads, nodes %d/%d",
			flow.Writes, flow.Reads, nodeWrites, nodeReads)
	}
	if flow.WriteBytes != nodeWriteBytes || flow.ReadBytes != nodeReadBytes {
		t.Errorf("cluster bytes: flows %d/%d, nodes %d/%d",
			flow.WriteBytes, flow.ReadBytes, nodeWriteBytes, nodeReadBytes)
	}

	net := be.Network()
	if flow.FabricUp != net.MovedUp() || flow.FabricDown != net.MovedDown() {
		t.Errorf("fabric bytes: flows %d/%d up/down, network %d/%d",
			flow.FabricUp, flow.FabricDown, net.MovedUp(), net.MovedDown())
	}

	// The pooled debt is the flows' contributions minus what the cleaner
	// drained — never more than was attributed.
	if debtAdded <= 0 {
		t.Error("write churn attributed no cleaning debt")
	}
	if got := be.Debt(); got > debtAdded {
		t.Errorf("pooled debt %d exceeds attributed contributions %d", got, debtAdded)
	}
}
