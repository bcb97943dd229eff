package workload

import (
	"fmt"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

// Tenant pairs one volume with the open-loop generator that drives it
// inside a multi-tenant run: Open issues requests on an arrival schedule
// (RunOpen semantics).
type Tenant struct {
	// Name labels the tenant in results ("victim", "aggr0", ...).
	Name string
	// Dev is the tenant's volume. Every tenant's device must live on the
	// same simulation engine — attach them to one shared essd.Backend (or
	// build private backends on one engine for a no-interference control).
	Dev blockdev.Device

	Open *OpenSpec
}

// TenantResult holds one tenant's measurements from a RunTenants call.
type TenantResult struct {
	Name   string      `json:"name"`
	Device string      `json:"device"`
	Open   *OpenResult `json:"open,omitempty"`
}

// RunTenants drives several tenants' generators concurrently inside one
// simulation engine: every generator is started, then a single engine run
// drains all of them, so the tenants' I/O interleaves event-for-event the
// way concurrent guests on a shared backend would. Results are returned in
// tenant order, each measured over that tenant's own submission-to-last-
// completion window.
//
// It panics on invalid input (a tenant without a spec, a device on a
// different engine, or a spec its device rejects) — the same
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
		case t.Open == nil:
			panic(fmt.Errorf("workload: tenant %d (%s) has no Open spec", i, t.Name))
		}
	}
	// Start every generator before running the engine, all at the current
	// virtual time: each tenant reserves a sequence number for every
	// arrival and schedules the first (each arrival draws the next from
	// the tenant's private RNG when it fires).
	finishers := make([]func() *OpenResult, len(tenants))
	for i, t := range tenants {
		finishers[i] = startOpen(t.Dev, *t.Open)
	}
	eng.Run()
	out := make([]*TenantResult, len(tenants))
	for i, t := range tenants {
		out[i] = &TenantResult{Name: t.Name, Device: t.Dev.Name(), Open: finishers[i]()}
	}
	return out
}
