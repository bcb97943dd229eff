package workload

import (
	"fmt"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

// Tenant pairs one volume with the generator that drives it inside a
// multi-tenant run. Exactly one of Open or Closed must be set: Open issues
// requests on an arrival schedule (RunOpen semantics) and Closed keeps a
// fixed queue depth outstanding (Run semantics).
type Tenant struct {
	// Name labels the tenant in results ("victim", "aggr0", ...).
	Name string
	// Dev is the tenant's volume. Every tenant's device must live on the
	// same simulation engine — attach them to one shared essd.Backend (or
	// build private backends on one engine for a no-interference control).
	Dev blockdev.Device

	Open   *OpenSpec
	Closed *Spec
}

// TenantResult holds one tenant's measurements from a RunTenants call.
// Exactly one of Open or Closed is non-nil, mirroring the tenant's spec.
type TenantResult struct {
	Name   string      `json:"name"`
	Device string      `json:"device"`
	Open   *OpenResult `json:"open,omitempty"`
	Closed *Result     `json:"closed,omitempty"`
}

// Throughput returns the tenant's mean completed bytes/s over its own
// measurement window, whichever generator family produced it.
func (r *TenantResult) Throughput() float64 {
	if r.Open != nil {
		return r.Open.Throughput()
	}
	return r.Closed.Throughput()
}

// RunTenants drives several tenants' generators concurrently inside one
// simulation engine: every generator is started, then a single engine run
// drains all of them, so the tenants' I/O interleaves event-for-event the
// way concurrent guests on a shared backend would. Results are returned in
// tenant order, each measured over that tenant's own submission-to-last-
// completion window.
//
// It panics on invalid input (a tenant without exactly one spec, a device
// on a different engine, or a spec its device rejects) — the same
// harness-programming-error contract as Run and RunOpen. Determinism: one
// engine means one event order, so a tenant mix is exactly reproducible
// from its specs and seeds regardless of host parallelism.
func RunTenants(eng *sim.Engine, tenants []Tenant) []*TenantResult {
	if len(tenants) == 0 {
		panic(fmt.Errorf("workload: no tenants"))
	}
	for i, t := range tenants {
		switch {
		case t.Dev == nil:
			panic(fmt.Errorf("workload: tenant %d (%s) has no device", i, t.Name))
		case t.Dev.Engine() != eng:
			panic(fmt.Errorf("workload: tenant %d (%s) device %q is not on the shared engine", i, t.Name, t.Dev.Name()))
		case (t.Open == nil) == (t.Closed == nil):
			panic(fmt.Errorf("workload: tenant %d (%s) must set exactly one of Open/Closed", i, t.Name))
		}
	}
	// Start every generator before running the engine, all at the current
	// virtual time: open-loop tenants reserve a sequence number for every
	// arrival and schedule the first (each arrival draws the next from the
	// tenant's private RNG when it fires), closed-loop tenants submit
	// their initial queue-depth window.
	finishers := make([]func() *TenantResult, len(tenants))
	for i, t := range tenants {
		i, t := i, t
		if t.Open != nil {
			fin := startOpen(t.Dev, *t.Open)
			finishers[i] = func() *TenantResult {
				return &TenantResult{Name: t.Name, Device: t.Dev.Name(), Open: fin()}
			}
		} else {
			fin := start(t.Dev, *t.Closed)
			finishers[i] = func() *TenantResult {
				return &TenantResult{Name: t.Name, Device: t.Dev.Name(), Closed: fin()}
			}
		}
	}
	eng.Run()
	out := make([]*TenantResult, len(tenants))
	for i, fin := range finishers {
		out[i] = fin()
	}
	return out
}
