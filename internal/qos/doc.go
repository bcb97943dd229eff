// Package qos implements the provider-side quality-of-service machinery of
// an ESSD volume:
//
//   - TokenBucket enforces the provisioned throughput and IOPS budgets — a
//     classic token bucket in virtual time with FIFO waiters, which is what
//     makes an ESSD's maximum bandwidth deterministic across access
//     patterns (Observation #4).
//   - FlowLimiter models the throttle the paper speculates providers
//     engage when background cleaning can no longer hide GC
//     (Observation #2, #4).
//   - CreditBucket models burstable volume tiers (AWS gp2-style): credits
//     earn continuously at a baseline rate, spends above baseline drain
//     the bank, and when it empties the volume falls to a sustained floor.
//     This is the mechanism behind the contract cliff that the scenario
//     suites and the slo search package measure.
//   - Isolation selects the per-tenant scheduling policy of a shared
//     backend (fifo, wfq, reservation) and its knobs (DRR quantum,
//     debt-share rate/burst). NewQueue builds the matching sim.FlowQueue
//     for every backend contention point, and DebtCouplingFactor gives
//     the fleet screen a closed-form bound on how much of a neighbour's
//     cleaning debt the policy lets through; docs/isolation.md documents
//     the end-to-end surface.
//
// # Model assumptions
//
// All machinery runs in deterministic virtual time on a sim.Engine; there
// are no real clocks or goroutines. CreditBucket charges a spend against
// the credit state at enqueue time (slightly conservative for deeply
// queued backlogs) and serializes spends FIFO through the credit-limited
// rate. Its analytic accessors — ExhaustedAt, SustainedFloor, Baseline,
// Burst — are what SLO searches and scenario tests assert against, so
// their definitions (documented on each method) are part of the package's
// contract.
package qos
