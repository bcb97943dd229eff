package fleet

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/expgrid"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
)

// orderingSpec is the calibrated study behind TestFleetPolicyOrdering:
// eight tenants (two bursty all-write aggressors at catalog positions 0
// and 4, six steady victims) packed onto two backends. First-fit lands
// both aggressors plus three victims on backend 0; spread's round-robin
// stacks the two aggressors (positions 0 and 4) with two victims; the
// interference-aware policy separates the aggressors. At a 5 ms p99.9
// target that yields strictly ordered violation counts.
func orderingSpec() Spec {
	return Spec{
		Demands:  SyntheticDemands(8, 2),
		Backends: 2,
		SLOP999:  5 * sim.Millisecond,
		Seed:     7,
	}
}

// TestFleetPolicyOrdering is the suite's headline assertion: at equal
// backend count, spread beats first-fit on SLO violations, and the
// interference-aware policy beats spread at equal packing density — and
// the whole study is byte-identical across worker counts and simulates
// zero new cells on a cache-warm re-run.
func TestFleetPolicyOrdering(t *testing.T) {
	cache := expgrid.NewCache(0)
	spec := orderingSpec()
	spec.Cache = cache
	spec.Workers = 1
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	ff, sp, ia := rep.Policy("first-fit"), rep.Policy("spread"), rep.Policy("interference")
	if ff == nil || sp == nil || ia == nil {
		t.Fatal("missing a default policy report")
	}
	if ff.BackendsUsed > rep.Backends || sp.BackendsUsed != rep.Backends || ia.BackendsUsed != rep.Backends {
		t.Fatalf("backend counts: first-fit=%d spread=%d interference=%d of %d",
			ff.BackendsUsed, sp.BackendsUsed, ia.BackendsUsed, rep.Backends)
	}
	if sp.P999Violations > ff.P999Violations {
		t.Errorf("spread has %d p99.9 violations, first-fit %d: spread must dominate at equal backend count",
			sp.P999Violations, ff.P999Violations)
	}
	if ia.P999Violations > sp.P999Violations {
		t.Errorf("interference-aware has %d p99.9 violations, spread %d: interference must dominate at equal density",
			ia.P999Violations, sp.P999Violations)
	}
	// The calibrated catalog makes the chain strict, not merely ≤: losing
	// that means the co-location signal (or the policies) regressed.
	if !(ff.P999Violations > sp.P999Violations && sp.P999Violations > ia.P999Violations) {
		t.Errorf("violation chain not strict: first-fit=%d spread=%d interference=%d",
			ff.P999Violations, sp.P999Violations, ia.P999Violations)
	}
	if ia.WorstP999Inflation > sp.WorstP999Inflation {
		t.Errorf("interference worst p99.9 inflation %.2f exceeds spread's %.2f",
			ia.WorstP999Inflation, sp.WorstP999Inflation)
	}

	// Byte-identical across worker counts: same report, same CSV bytes.
	spec8 := orderingSpec()
	spec8.Workers = 8
	rep8, err := Run(context.Background(), spec8)
	if err != nil {
		t.Fatal(err)
	}
	rep8.CachedCells = rep.CachedCells // only bookkeeping may differ (cold vs cold here: both 0)
	if !reflect.DeepEqual(rep, rep8) {
		t.Fatal("fleet report differs between 1 and 8 workers")
	}
	var csv1, csv8 bytes.Buffer
	if err := WriteBackendsCSV(&csv1, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteBackendsCSV(&csv8, rep8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv8.Bytes()) {
		t.Fatal("fleet CSV differs between 1 and 8 workers")
	}

	// Cache-warm re-run: zero new cells, identical measurements.
	warm := orderingSpec()
	warm.Cache = cache
	warm.Workers = 8
	repW, err := Run(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if repW.CachedCells != repW.Cells {
		t.Fatalf("warm re-run simulated %d of %d cells", repW.Cells-repW.CachedCells, repW.Cells)
	}
	var csvW bytes.Buffer
	if err := WriteBackendsCSV(&csvW, repW); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csvW.Bytes()) {
		t.Fatal("cache-warm fleet CSV differs from cold run")
	}
}

// TestFleetCacheKeyedOnTemplates asserts that a cache built under one
// backend template never serves a spec with a different one: the template
// is a Tenants-hook input the expgrid fingerprint cannot see, so its
// isolation policy must be folded into the sweep (a stale hit here would
// silently report fifo measurements as the isolated backend's).
func TestFleetCacheKeyedOnTemplates(t *testing.T) {
	cache := expgrid.NewCache(0)
	small := func() Spec {
		return Spec{
			Demands:  SyntheticDemands(3, 1),
			Policies: []PlacementPolicy{FirstFit{}},
			Backends: 1,
			Horizon:  500 * sim.Millisecond,
			Cache:    cache,
			Seed:     3,
		}
	}
	if _, err := Run(context.Background(), small()); err != nil {
		t.Fatal(err)
	}
	sameWarm, err := Run(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	if sameWarm.CachedCells != sameWarm.Cells {
		t.Fatalf("identical spec re-ran %d of %d cells", sameWarm.Cells-sameWarm.CachedCells, sameWarm.Cells)
	}
	isolated := small()
	isolated.Isolation = qos.Isolation{Policy: qos.IsolationWFQ}
	repI, err := Run(context.Background(), isolated)
	if err != nil {
		t.Fatal(err)
	}
	if repI.CachedCells != 0 {
		t.Fatalf("changed isolation policy served %d cached cells", repI.CachedCells)
	}
}

// TestFleetPlacementPolicies pins each built-in policy's assignment on a
// hand-checked catalog, without any simulation.
func TestFleetPlacementPolicies(t *testing.T) {
	demands := SyntheticDemands(8, 2)
	if demands[0].Name != "aggr00" || demands[4].Name != "aggr01" {
		t.Fatalf("synthetic aggressors misplaced: %+v", demands)
	}
	cons := Constraints{Backends: 2, BackendBps: 0.9e9, WriteBps: 0.45e9, EffectiveBps: 1e9}

	for _, tc := range []struct {
		policy PlacementPolicy
		want   []int
	}{
		// First-fit by nominal rate: both aggressors (419 MB/s each) and
		// three victims fill backend 0 to ~897 MB/s, the rest overflow.
		{FirstFit{}, []int{0, 0, 0, 0, 0, 1, 1, 1}},
		// Spread round-robins by catalog position.
		{Spread{}, []int{0, 1, 0, 1, 0, 1, 0, 1}},
		// Interference-aware separates the heavy writers (catalog
		// positions 0 and 4) and balances the victims around them.
		{InterferenceAware{}, []int{0, 0, 1, 0, 1, 1, 0, 1}},
	} {
		got := tc.policy.Place(cons, demands)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s placement = %v, want %v", tc.policy.Name(), got, tc.want)
		}
	}

	// Best-fit packs write churn tightly: with both aggressors over the
	// write budget individually? no — each is under; the second must not
	// fit beside the first (419+419 > 450 write budget).
	bf := BestFit{}.Place(cons, demands)
	if bf[0] == bf[4] {
		t.Errorf("best-fit co-located both aggressors: %v", bf)
	}

	// Every policy is best-effort: an over-subscribed catalog still
	// places every demand in range.
	tiny := Constraints{Backends: 1, BackendBps: 1, WriteBps: 1}
	for _, p := range DefaultPolicies() {
		got := p.Place(tiny, demands)
		for i, b := range got {
			if b != 0 {
				t.Errorf("%s placed demand %d on backend %d of 1", p.Name(), i, b)
			}
		}
	}
}

// TestFleetSpecValidation covers the error paths of Spec and Demand
// validation.
func TestFleetSpecValidation(t *testing.T) {
	base := func() Spec { return Spec{Demands: SyntheticDemands(4, 1), Seed: 1} }
	for name, mutate := range map[string]func(*Spec){
		"no demands": func(s *Spec) { s.Demands = nil },
		"dup name":   func(s *Spec) { s.Demands[1].Name = s.Demands[0].Name },
		"bad char":   func(s *Spec) { s.Demands[2].Name = "a+b" },
		"no rate":    func(s *Spec) { s.Demands[1].RatePerSec = 0 },
		"no size":    func(s *Spec) { s.Demands[1].BlockSize = 0 },
		"bad ratio":  func(s *Spec) { s.Demands[1].WriteRatioPct = 101 },
		"empty name": func(s *Spec) { s.Demands[3].Name = "" },
	} {
		s := base()
		mutate(&s)
		if _, err := Run(context.Background(), s); err == nil {
			t.Errorf("%s: spec accepted", name)
		}
	}
}

// TestDemandFromTrace checks the trace→demand bridge: fitted rate, write
// mix, and block rounding, plus the no-defined-rate error path.
func TestDemandFromTrace(t *testing.T) {
	recs := []trace.Record{
		{At: 0, Op: blockdev.Write, Offset: 0, Size: 5000},
		{At: 100 * sim.Millisecond, Op: blockdev.Read, Offset: 8192, Size: 4096},
		{At: 200 * sim.Millisecond, Op: blockdev.Write, Offset: 0, Size: 4096},
	}
	d, err := DemandFromTrace("src1", recs, 1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if d.RatePerSec < 9.9 || d.RatePerSec > 10.1 {
		t.Errorf("rate = %v, want ~10/s (2 gaps over 200 ms)", d.RatePerSec)
	}
	if d.WriteRatioPct != 67 {
		t.Errorf("write ratio = %d%%, want 67%% (2 of 3)", d.WriteRatioPct)
	}
	// Mean fitted size: 5000→8192 rounded, others 4096 → mean 5461 → one
	// more rounding up to whole blocks = 8192.
	if d.BlockSize != 8192 {
		t.Errorf("block size = %d, want 8192", d.BlockSize)
	}
	if d.Arrival != workload.Poisson {
		t.Errorf("arrival = %v, want poisson", d.Arrival)
	}

	if _, err := DemandFromTrace("x", recs[:1], 1<<20, 4096); err == nil {
		t.Error("single-record trace accepted (no defined rate)")
	}
	if _, err := DemandFromTrace("x", nil, 1<<20, 4096); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestSyntheticDemands pins the catalog generator's shape: aggressor
// count, spacing, and unique names.
func TestSyntheticDemands(t *testing.T) {
	d := SyntheticDemands(9, 3)
	if len(d) != 9 {
		t.Fatalf("len = %d, want 9", len(d))
	}
	var aggrs []int
	seen := map[string]bool{}
	for i, dem := range d {
		if err := dem.Validate(); err != nil {
			t.Fatalf("demand %d invalid: %v", i, err)
		}
		if seen[dem.Name] {
			t.Fatalf("duplicate name %q", dem.Name)
		}
		seen[dem.Name] = true
		if dem.WriteRatioPct == 100 {
			aggrs = append(aggrs, i)
		}
	}
	if !reflect.DeepEqual(aggrs, []int{0, 3, 6}) {
		t.Fatalf("aggressors at %v, want [0 3 6]", aggrs)
	}
	if n := len(SyntheticDemands(3, 5)); n != 3 {
		t.Fatalf("over-asked catalog has %d demands", n)
	}
}

// TestFleetCellNaming checks that cell identity is the membership alone —
// unique names per population, solo controls deduped by demand shape, and
// two policies producing the same co-location sharing one cell.
func TestFleetCellNaming(t *testing.T) {
	s := orderingSpec().withDefaults()
	cons := s.constraints()
	assignments := make([][]int, len(s.Policies))
	for i, p := range s.Policies {
		assignments[i] = p.Place(cons, s.Demands)
	}
	// Two policies with identical placements must share cells.
	assignments = append(assignments, assignments[0])
	refs0 := len(assignments) - 1
	defs, refs := s.cells(assignments)
	names := map[string]bool{}
	solos := 0
	for _, def := range defs {
		if names[def.name] {
			t.Fatalf("duplicate cell name %q", def.name)
		}
		names[def.name] = true
		if def.solo {
			solos++
			if !strings.HasPrefix(def.name, "solo[") {
				t.Fatalf("solo cell named %q", def.name)
			}
		}
	}
	// Two distinct demand shapes → two solo controls, shared by all
	// policies.
	if solos != 2 {
		t.Fatalf("%d solo cells, want 2", solos)
	}
	if !reflect.DeepEqual(refs[0], refs[refs0]) {
		t.Fatalf("identical placements did not share cells: %v vs %v", refs[0], refs[refs0])
	}
}

// TestFleetDemandValidateRates checks a demand's rate must be finite and
// positive: NaN passes every <= 0 test.
func TestFleetDemandValidateRates(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := Demand{Name: "t", RatePerSec: rate, BlockSize: 4096}
		if err := d.Validate(); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	if err := (Demand{Name: "t", RatePerSec: 0.5, BlockSize: 4096}).Validate(); err != nil {
		t.Errorf("rate 0.5 rejected: %v", err)
	}
}
