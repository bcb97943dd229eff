package workload

import (
	"reflect"
	"testing"

	"essdsim/internal/sim"
)

// newTestDevice builds a constant-latency fake on a caller-owned engine,
// so several tenants can share one engine.
func newTestDevice(eng *sim.Engine, latMicros int64) *fakeDevice {
	return &fakeDevice{eng: eng, lat: sim.Duration(latMicros) * sim.Microsecond, capacity: 1 << 30}
}

// tenantSpec is a small open-loop spec sized for -short runs.
func tenantSpec(seed uint64) OpenSpec {
	return OpenSpec{
		Pattern:    RandWrite,
		BlockSize:  4096,
		RatePerSec: 5000,
		Arrival:    Uniform,
		Count:      500,
		Seed:       seed,
	}
}

// TestRunTenantsSoloMatchesRunOpen checks the split-phase refactor is
// invisible: a single open-loop tenant measured through RunTenants is
// identical to the same spec through RunOpen.
func TestRunTenantsSoloMatchesRunOpen(t *testing.T) {
	eng1 := sim.NewEngine()
	solo := RunOpen(newTestDevice(eng1, 9), tenantSpec(3))

	eng2 := sim.NewEngine()
	spec := tenantSpec(3)
	res := RunTenants(eng2, []Tenant{{Name: "only", Dev: newTestDevice(eng2, 9), Open: &spec}})
	if len(res) != 1 || res[0].Open == nil {
		t.Fatalf("tenant results = %+v", res)
	}
	if !reflect.DeepEqual(solo, res[0].Open) {
		t.Fatalf("solo tenant result differs from RunOpen:\n  RunOpen: ops=%d bytes=%d elapsed=%v\n  tenant:  ops=%d bytes=%d elapsed=%v",
			solo.Ops, solo.Bytes, solo.Elapsed, res[0].Open.Ops, res[0].Open.Bytes, res[0].Open.Elapsed)
	}
}

// TestRunTenantsMixedFamilies runs a uniform and a bursty tenant of
// different rates on one engine and checks each measures its own window.
func TestRunTenantsMixedFamilies(t *testing.T) {
	eng := sim.NewEngine()
	uniform := tenantSpec(4)
	bursty := tenantSpec(5)
	bursty.Arrival, bursty.RatePerSec, bursty.Count = Bursty, 400, 400
	devA := newTestDevice(eng, 1)
	devB := newTestDevice(eng, 2)
	res := RunTenants(eng, []Tenant{
		{Name: "uniform", Dev: devA, Open: &uniform},
		{Name: "bursty", Dev: devB, Open: &bursty},
	})
	for i, spec := range []OpenSpec{uniform, bursty} {
		if res[i].Open.Ops != spec.Count {
			t.Fatalf("%s tenant completed %d of %d", res[i].Name, res[i].Open.Ops, spec.Count)
		}
		if res[i].Open.Throughput() <= 0 {
			t.Fatalf("%s tenant throughput %v", res[i].Name, res[i].Open.Throughput())
		}
	}
	// 500 uniform arrivals at 5000/s span 0.1 s; 400 bursty ones at
	// 400/s all arrive at t = 0.
	if res[0].Open.Elapsed < 99*sim.Millisecond || res[1].Open.Elapsed >= res[0].Open.Elapsed {
		t.Fatalf("windows not per tenant: uniform %v, bursty %v", res[0].Open.Elapsed, res[1].Open.Elapsed)
	}
}

// TestRunTenantsValidation checks the panic contract for malformed
// tenants.
func TestRunTenantsValidation(t *testing.T) {
	eng := sim.NewEngine()
	spec := tenantSpec(1)
	cases := map[string][]Tenant{
		"empty":        {},
		"no device":    {{Name: "x", Open: &spec}},
		"no spec":      {{Name: "x", Dev: newTestDevice(eng, 1)}},
		"wrong engine": {{Name: "x", Dev: newTestDevice(sim.NewEngine(), 1), Open: &spec}},
	}
	for name, tenants := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RunTenants did not panic", name)
				}
			}()
			RunTenants(eng, tenants)
		}()
	}
}

// TestParseArrival round-trips every arrival shape and rejects junk.
func TestParseArrival(t *testing.T) {
	for _, a := range []Arrival{Uniform, Poisson, Bursty} {
		got, err := ParseArrival(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseArrival(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseArrival("sawtooth"); err == nil {
		t.Fatal("ParseArrival accepted junk")
	}
}
