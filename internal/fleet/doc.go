// Package fleet runs tenant-packing studies over many shared storage
// backends: the provider-side question the unwritten contract raises at
// cloud scale. A single shared backend (essd.Backend) tells a tenant what
// interference feels like; a fleet study tells the provider which
// placement decisions create that interference, by materializing the same
// tenant catalog under several placement policies and simulating every
// resulting backend independently.
//
// A Spec pairs a catalog of tenant Demands (synthetic shapes via
// SyntheticDemands, or profiles fitted from real MSR-Cambridge traces via
// DemandFromTrace) with the backends' isolation policy and a set of
// PlacementPolicy implementations. Every backend and volume is built from
// the noisy-neighbor profiles: an ESSD-1-class cluster with a modest
// cleaner and gp3-class volumes. Four policies are built in:
//
//   - FirstFit packs by nominal offered rate into the fewest backends —
//     maximum density, maximum co-location.
//   - Spread round-robins across every available backend — the widest
//     placement at a given backend count (Constraints.Backends is the
//     density knob).
//   - BestFit packs by residual write-absorption budget — write churn
//     lands tightly together, sparing the other backends.
//   - InterferenceAware balances effective write load (capped at the
//     volume's throughput budget) and penalizes co-locating write-heavy
//     aggressors with each other, the shared-cleaner coupling the
//     noisy-neighbor suite quantifies.
//
// Run materializes each placement as independent essd.Backend simulations
// — one expgrid tenant-mix cell per distinct backend population, plus one
// solo control per distinct demand shape — and executes all cells of all
// policies in parallel on one expgrid worker pool. Cell identity is the
// membership alone: two policies that co-locate the same tenants share
// one cell, so physically identical placements measure identically
// rather than diverging on seed noise. Seeds derive from that membership
// (coordinate-hashed device names), so results are deterministic and
// byte-identical for any worker count, and a Spec.Cache warm re-run
// simulates zero new cells.
//
// The Report compares policies on the axes the paper's contract implies:
// backends used and their utilization (packing density), fleet-wide
// p99/p99.9 SLO violation counts against the fleet's targets, worst
// victim tail inflation versus the solo control, and per-backend pooled
// debt and throttle counts. Format renders the policy-vs-policy table;
// WriteBackendsCSV and WriteTenantsCSV export the schemas documented in
// docs/formats.md.
//
// Screen is the two-fidelity variant: it scores many candidate placements
// analytically — discounting the aggressor-pair penalty by the backend
// isolation policy's qos.Isolation.DebtCouplingFactor — and simulates
// only the Pareto frontier.
package fleet
