// Package expgrid runs declarative experiment grids — the cross product of
// device factories, access patterns, I/O sizes, queue depths, and write
// ratios — on a pool of parallel workers.
//
// # Cell workload kinds
//
// A sweep's Kind selects what each cell runs: Closed (the default) drives a
// fixed queue depth through workload.Run; Open issues requests on an
// arrival schedule through workload.RunOpen, adding arrival-shape and
// offered-rate axes — the regime where provisioned budgets and burst
// credits dominate; TraceReplay replays one recorded trace per device cell
// through trace.Replay (optionally fitted to each device via FitTrace);
// TenantMix runs several generators against distinct volumes inside one
// engine through workload.RunTenants, adding an aggressor-count axis — the
// multi-tenant regime where volumes sharing a backend interfere. All four
// share the same isolation, seeding, and determinism guarantees below.
//
// # Cell-isolation model
//
// A Sweep enumerates its axes into a flat list of Cells in a fixed
// row-major order (devices, then patterns, then block sizes, then queue
// depths, then write ratios). Every cell is an independent experiment: the
// worker that executes it constructs a fresh device from the cell's
// factory, preconditions it, and runs one workload on the device's own
// sim.Engine. No simulation state is shared between cells, which is what
// makes the grid embarrassingly parallel — exactly like running each fio
// job on its own re-initialized volume. The Runner therefore executes
// cells concurrently with a configurable number of workers and still
// yields results in the deterministic enumeration order.
//
// # Seed derivation
//
// Each cell's RNG seed is a pure hash of the sweep's root seed, its label,
// and the cell's own coordinates (device name, pattern, block size, queue
// depth, write ratio) — see CellSeed. The hash is independent of the
// cell's position in the enumeration, so adding, removing, or reordering
// axis values never changes the RNG stream of any other cell: a cell
// measures the same numbers whether it runs in a 1-cell sweep or a
// 1000-cell sweep, with 1 worker or with N. This replaces the old
// harness scheme of incrementing a shared counter per cell, under which
// any change to the grid silently re-seeded every cell after it.
//
// # Result caching
//
// A Sweep with a Cache attached memoizes successful cell results across
// sweeps: a cell is keyed by its coordinate-hash seed plus a fingerprint
// of every result-shaping sweep setting that is not a cell coordinate
// (the kind, time bounds, preconditioning, open-loop knobs, trace
// content), so two sweeps share an entry exactly when the cell would
// measure byte-identical results. Probing workloads that revisit coordinates — a latency-SLO
// binary search, a re-run of a whole suite — skip the simulation and
// return the stored measurement, marked CellResult.Cached. The cache is a
// bounded LRU, safe for concurrent workers, and persists to JSON
// (Cache.SaveFile/LoadFile) with deterministic bytes; sweeps that combine
// persistence with an Inspect hook must also set DecodeInfo so loaded
// captures can be rehydrated. Two identities live outside the key and must
// be kept stable by the caller: the factory behind a device name, and the
// semantics of Inspect — change either together with the sweep Label.
package expgrid
