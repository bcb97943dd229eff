// Package workload generates the paper's FIO-style workloads against a
// simulated device, in three regimes:
//
//   - Run drives a closed loop: a fixed queue depth of outstanding I/Os,
//     each completion immediately submitting the next request. This is the
//     paper's microbenchmark shape (§III-A) — the four access patterns
//     (random/sequential × read/write), mixed read/write ratios,
//     configurable I/O size and queue depth, bounded by duration, byte
//     volume, or op count.
//
//   - RunOpen drives an open loop: requests issue on an arrival schedule
//     (uniform, Poisson, or bursty) at an offered rate, regardless of
//     completions. This is the regime where an ESSD's provisioned budget
//     and burst credits dominate (Observation/Implication #4): a device
//     that cannot keep up accumulates a queue, and the recorded latency
//     includes that queueing delay — exactly what a deadline-driven
//     service experiences.
//
//   - RunTenants drives a tenant mix: several open-loop generators, each
//     against its own volume, started together and
//     drained by ONE engine run, so their I/O interleaves event for event
//     the way concurrent guests on a shared storage backend would. Each
//     tenant measures its own submission-to-last-completion window. This
//     is the multi-tenant regime behind the noisy-neighbor scenarios:
//     volumes attached to a shared essd.Backend interfere, volumes on
//     private backends do not.
//
// # Model assumptions
//
// Both loops run in deterministic virtual time on the device's sim.Engine;
// identical specs and seeds reproduce identical measurements on any
// machine and worker count. Offsets are drawn uniformly over the device
// (or, for Run, a leading Region); sequential patterns wrap at the end.
// Latency histograms are HDR-style
// (~3% relative resolution); open-loop results additionally carry
// per-interval completion timelines (OpenResult.Series, LatSeries) whose
// windows expose the before/after of a credit-exhaustion cliff, and can
// track per-window percentile histograms (OpenSpec.WindowPercentiles) for
// SLO probing.
//
// Specs are validated before running; Run and RunOpen panic on invalid
// specs (a harness programming error), while Validate returns the same
// condition as an error for front ends that want a clean diagnostic.
package workload
