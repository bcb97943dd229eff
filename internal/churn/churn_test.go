package churn

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"essdsim/internal/expgrid"
	"essdsim/internal/fleet"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// churnSpec is a small random-process study: four tenants (one
// aggressor), two backends, three epochs of moderate churn.
func churnSpec() Spec {
	return Spec{
		Fleet: fleet.Spec{
			Demands:  fleet.SyntheticDemands(4, 1),
			Policies: []fleet.PlacementPolicy{fleet.FirstFit{}},
			Backends: 2,
			Horizon:  500 * sim.Millisecond,
			Seed:     11,
		},
		Epochs:     3,
		ChurnRate:  1.5,
		Rebalancer: Threshold{},
	}
}

// TestChurnDeterminism pins the tentpole's reproducibility contract:
// the same spec run on 1 and 8 workers produces byte-identical reports
// and CSVs, and a cache-warm re-run simulates zero new cells.
func TestChurnDeterminism(t *testing.T) {
	cache := expgrid.NewCache(0)
	s1 := churnSpec()
	s1.Fleet.Cache = cache
	s1.Fleet.Workers = 1
	r1, err := Run(context.Background(), s1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Epochs) != 3 {
		t.Fatalf("got %d epoch reports, want 3", len(r1.Epochs))
	}
	if len(r1.Events) == 0 {
		t.Fatal("churn rate 1.5 over 3 epochs produced no events")
	}

	s8 := churnSpec()
	s8.Fleet.Workers = 8
	r8, err := Run(context.Background(), s8)
	if err != nil {
		t.Fatal(err)
	}
	r8.CachedCells = r1.CachedCells
	for i := range r8.Epochs {
		r8.Epochs[i].CachedBackends = r1.Epochs[i].CachedBackends
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("churn report differs between 1 and 8 workers")
	}
	var e1, e8, v1, v8 bytes.Buffer
	if err := WriteEpochsCSV(&e1, r1); err != nil {
		t.Fatal(err)
	}
	if err := WriteEpochsCSV(&e8, r8); err != nil {
		t.Fatal(err)
	}
	if err := WriteEventsCSV(&v1, r1); err != nil {
		t.Fatal(err)
	}
	if err := WriteEventsCSV(&v8, r8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1.Bytes(), e8.Bytes()) || !bytes.Equal(v1.Bytes(), v8.Bytes()) {
		t.Fatal("churn CSVs differ between 1 and 8 workers")
	}

	// Cache-warm re-run: zero new cells, identical time series.
	sw := churnSpec()
	sw.Fleet.Cache = cache
	sw.Fleet.Workers = 8
	rw, err := Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if rw.CachedCells != rw.Cells {
		t.Fatalf("warm re-run simulated %d of %d cells", rw.Cells-rw.CachedCells, rw.Cells)
	}
	var ew bytes.Buffer
	if err := WriteEpochsCSV(&ew, rw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1.Bytes(), ew.Bytes()) {
		t.Fatal("cache-warm churn CSV differs from cold run")
	}
}

// TestChurnZeroChurnMatchesFleet pins the control plane's base case: a
// zero-churn timeline must measure exactly what the equivalent static
// fleet study measures. The churn run goes through a cache warmed by
// fleet.Run — every churn cell must be a cache hit (the cell naming and
// label scheme are shared), and every epoch's numbers must reproduce
// the fleet backend aggregates.
func TestChurnZeroChurnMatchesFleet(t *testing.T) {
	cache := expgrid.NewCache(0)
	fs := fleet.Spec{
		Demands:  fleet.SyntheticDemands(4, 1),
		Policies: []fleet.PlacementPolicy{fleet.FirstFit{}},
		Backends: 2,
		Horizon:  500 * sim.Millisecond,
		Seed:     11,
		Cache:    cache,
	}
	frep, err := fleet.Run(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(frep.Policies) != 1 || frep.Policies[0].Policy != "first-fit" {
		t.Fatal("missing first-fit fleet report")
	}
	pr := &frep.Policies[0]

	crep, err := Run(context.Background(), Spec{Fleet: fs, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if crep.CachedCells != crep.Cells {
		t.Fatalf("zero-churn run against the fleet cache simulated %d of %d cells — cell identity diverged",
			crep.Cells-crep.CachedCells, crep.Cells)
	}
	if len(crep.Events) != 0 || crep.TotalMigrations != 0 {
		t.Fatalf("zero-churn run recorded %d events, %d migrations", len(crep.Events), crep.TotalMigrations)
	}

	var wantAchieved float64
	var wantDebt int64
	var wantP99, wantP999 sim.Duration
	for _, br := range pr.Backends {
		wantAchieved += br.AchievedBps
		wantDebt += br.SharedDebt
		if br.WorstP99 > wantP99 {
			wantP99 = br.WorstP99
		}
		if br.WorstP999 > wantP999 {
			wantP999 = br.WorstP999
		}
	}
	for _, e := range crep.Epochs {
		if e.BackendsUsed != pr.BackendsUsed {
			t.Errorf("epoch %d uses %d backends, fleet used %d", e.Epoch, e.BackendsUsed, pr.BackendsUsed)
		}
		if e.P99Violations != pr.P99Violations || e.P999Violations != pr.P999Violations {
			t.Errorf("epoch %d violations %d/%d, fleet %d/%d",
				e.Epoch, e.P99Violations, e.P999Violations, pr.P99Violations, pr.P999Violations)
		}
		if e.AchievedBps != wantAchieved || e.SharedDebt != wantDebt {
			t.Errorf("epoch %d achieved %.0f debt %d, fleet %.0f %d",
				e.Epoch, e.AchievedBps, e.SharedDebt, wantAchieved, wantDebt)
		}
		if e.WorstP99 != wantP99 || e.WorstP999 != wantP999 {
			t.Errorf("epoch %d worst tail %v/%v, fleet %v/%v",
				e.Epoch, e.WorstP99, e.WorstP999, wantP99, wantP999)
		}
	}
}

// orderingSpec is the calibrated timeline behind
// TestChurnRebalancerOrdering: three medium bursty writers plus one
// victim first-fit onto backend 0 of three (util 0.93); at epoch 1 all
// three mediums expand ×2 (util 1.83 — two moves needed to clear the
// overload); at epoch 2 one expanded medium deletes. Threshold clears
// the overload the epoch it appears with two migrations; drain moves
// one volume per epoch and the delete spares it the second move;
// never-move soaks the overload for the rest of the run.
func orderingSpec(rb Rebalancer, cache *expgrid.Cache) Spec {
	med := func(name string) fleet.Demand {
		return fleet.Demand{Name: name, RatePerSec: 800, BlockSize: 256 << 10,
			WriteRatioPct: 100, Arrival: workload.Bursty}
	}
	return Spec{
		Fleet: fleet.Spec{
			Demands: []fleet.Demand{
				med("med0"), med("med1"), med("med2"),
				{Name: "ten0", RatePerSec: 300, BlockSize: 64 << 10,
					WriteRatioPct: 50, Arrival: workload.Uniform},
			},
			Policies:   []fleet.PlacementPolicy{fleet.FirstFit{}},
			Backends:   3,
			BackendBps: 700e6,
			SLOP999:    5 * sim.Millisecond,
			Horizon:    time1s,
			Seed:       7,
			Cache:      cache,
		},
		Epochs:          4,
		Rebalancer:      rb,
		MigrationBudget: 2,
		Script: []Event{
			{Epoch: 1, Kind: Expand, Tenant: "med0"},
			{Epoch: 1, Kind: Expand, Tenant: "med1"},
			{Epoch: 1, Kind: Expand, Tenant: "med2"},
			{Epoch: 2, Kind: Delete, Tenant: "med2"},
		},
	}
}

const time1s = sim.Second

// TestChurnRebalancerOrdering pins the tentpole's policy ordering on
// the calibrated script: at equal migration budget, threshold-triggered
// rebalancing has no more SLO violations than never-move, and
// background drain spends strictly less migration cost than threshold.
// The three timelines share one cache so their common cells simulate
// once.
func TestChurnRebalancerOrdering(t *testing.T) {
	cache := expgrid.NewCache(0)
	run := func(rb Rebalancer) *Report {
		t.Helper()
		rep, err := Run(context.Background(), orderingSpec(rb, cache))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	nev := run(NeverMove{})
	thr := run(Threshold{})
	drn := run(Drain{})

	if nev.TotalMigrations != 0 {
		t.Fatalf("never-move migrated %d times", nev.TotalMigrations)
	}
	if thr.TotalMigrations != 2 {
		t.Fatalf("threshold migrated %d times, want 2 (both expanded writers move the epoch the overload appears)",
			thr.TotalMigrations)
	}
	if drn.TotalMigrations != 1 {
		t.Fatalf("drain migrated %d times, want 1 (the epoch-2 delete clears the rest of the overload)",
			drn.TotalMigrations)
	}

	if thr.TotalP999Violations > nev.TotalP999Violations {
		t.Errorf("threshold has %d p99.9 violations, never-move %d: rebalancing must not lose to doing nothing",
			thr.TotalP999Violations, nev.TotalP999Violations)
	}
	// The calibrated overload (util 1.83 for three epochs) makes the
	// comparison strict, not merely ≤.
	if thr.TotalP999Violations >= nev.TotalP999Violations {
		t.Errorf("violation ordering not strict: threshold=%d never=%d",
			thr.TotalP999Violations, nev.TotalP999Violations)
	}
	if drn.TotalMoveBytes >= thr.TotalMoveBytes {
		t.Errorf("drain moved %d bytes, threshold %d: background drain must cost strictly less here",
			drn.TotalMoveBytes, thr.TotalMoveBytes)
	}
}

// TestChurnValidation pins the spec error paths: negative churn rate,
// scripted migrations, out-of-range epochs, unknown create shapes, and
// unknown rebalancer names must all produce descriptive errors.
func TestChurnValidation(t *testing.T) {
	base := func() Spec {
		s := churnSpec()
		s.Fleet.Horizon = 100 * sim.Millisecond
		return s
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"negative rate", func(s *Spec) { s.ChurnRate = -1 }, "negative churn rate"},
		{"scripted migrate", func(s *Spec) {
			s.Script = []Event{{Epoch: 0, Kind: Migrate, Tenant: "aggr00"}}
		}, "decided by the rebalancer"},
		{"epoch out of range", func(s *Spec) {
			s.Script = []Event{{Epoch: 99, Kind: Delete, Tenant: "aggr00"}}
		}, "targets epoch"},
		{"unknown create", func(s *Spec) {
			s.Script = []Event{{Epoch: 0, Kind: Create, Tenant: "nope"}}
		}, "unknown catalog demand"},
		{"instance-token demand", func(s *Spec) {
			s.Fleet.Demands = append(s.Fleet.Demands, fleet.Demand{
				Name: "bad~name", RatePerSec: 1, BlockSize: 4096, Arrival: workload.Uniform})
		}, "instance-token character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			_, err := Run(context.Background(), s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
	if _, err := RebalancerByName("bogus"); err == nil || !strings.Contains(err.Error(), "unknown rebalancer") {
		t.Fatalf("RebalancerByName(bogus) = %v", err)
	}
	if r, err := RebalancerByName("drain"); err != nil || r.Name() != "drain" {
		t.Fatalf("RebalancerByName(drain) = %v, %v", r, err)
	}
}

// TestDrainPlan pins the shared drain planner's mechanics on a nominal
// view: largest-first off the hottest backend onto the coldest, budget
// respected, no move when nothing is over threshold.
func TestDrainPlan(t *testing.T) {
	v := View{
		Backends:   3,
		BackendBps: 100,
		Load:       []float64{180, 20, 0},
		Tenants: []TenantView{
			{Name: "small", Backend: 0, OfferedBps: 30},
			{Name: "big", Backend: 0, OfferedBps: 90},
			{Name: "other", Backend: 0, OfferedBps: 60},
			{Name: "cold", Backend: 1, OfferedBps: 20},
		},
		Budget: 2,
	}
	moves := drainPlan(v, 2)
	if len(moves) != 1 {
		t.Fatalf("got %d moves, want 1 (moving big clears the overload): %+v", len(moves), moves)
	}
	if moves[0].Tenant != 1 || moves[0].To != 2 {
		t.Fatalf("move = %+v, want tenant 1 (big) to backend 2 (coldest)", moves[0])
	}
	if got := drainPlan(View{Backends: 2, BackendBps: 100, Load: []float64{90, 50}, Budget: 2}, 2); len(got) != 0 {
		t.Fatalf("under-threshold view planned moves: %+v", got)
	}
	if got := (NeverMove{}).Plan(v); got != nil {
		t.Fatalf("never-move planned moves: %+v", got)
	}
}

// TestPoissonDeterminism pins the event process: the same seed draws
// the same counts, and the mean tracks the rate.
func TestPoissonDeterminism(t *testing.T) {
	draw := func() []int {
		rng := sim.NewRNG(5, 6)
		out := make([]int, 32)
		for i := range out {
			out[i] = poisson(rng, 1.5)
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("poisson draws differ for the same seed")
	}
	var total int
	for _, n := range a {
		total += n
	}
	if total == 0 {
		t.Fatal("poisson(1.5) drew zero events in 32 epochs")
	}
	if poisson(sim.NewRNG(1, 1), 0) != 0 {
		t.Fatal("poisson(0) must be 0")
	}
}
