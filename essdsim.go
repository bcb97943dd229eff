// Package essdsim is the public API of the elastic-SSD simulation library,
// a reproduction of "The Unwritten Contract of Cloud-based Elastic
// Solid-State Drives" (Wang & Yang, DAC 2025).
//
// The library provides:
//
//   - calibrated simulated devices: two cloud ESSDs (AWS io2 class and
//     Alibaba PL3 class), budget and burstable elastic tiers, and a local
//     NVMe SSD (Samsung 970 Pro class), all behind one block-device
//     interface (NewDevice, ProfileNames);
//   - a fio-style workload engine — closed-loop (Run), open-loop (RunOpen)
//     and trace replay (ReplayTrace) — with latency histograms and
//     throughput timelines measured in deterministic virtual time;
//   - declarative experiment grids (Sweep) executed on a parallel worker
//     pool with deterministic per-cell seeding, plus a sweep-level result
//     cache (SweepCache) that memoizes cells across sweeps and persists to
//     JSON;
//   - the burst-credit scenario suite (RunBurstScenario) and a latency-SLO
//     search (SearchSLO) that binary-searches offered rate for the highest
//     rate meeting a p99/p99.9 target, reporting both the pre-exhaustion
//     and post-cliff answers of burstable tiers;
//   - shared-backend multi-tenancy: many volumes attached to one Backend
//     (NewBackend/AttachVolume) contending on its cluster, fabric, and
//     cleaner, a tenant-mix driver (RunTenantMix) running their
//     generators inside one engine, and the noisy-neighbor scenario suite
//     (RunNeighborScenario) measuring victim tail inflation and
//     shared-debt throttle onset;
//   - pluggable per-tenant QoS isolation (Isolation, docs/isolation.md):
//     every contention point of the shared backend — cluster streams,
//     pooled cleaner debt, fabric links — schedules per-flow under fifo
//     (the byte-identical default), weighted fair queueing, or
//     work-conserving reservations, with per-volume Weight/ReservedRate
//     (NewDeviceQoS, NeighborSweep.Isolation);
//   - the fleet churn control plane (RunChurn): volume lifecycle events
//     over a tenant catalog packed onto shared backends, with pluggable
//     rebalancers, measured epoch by epoch; and
//   - deterministic sampled request tracing and state probes
//     (InstrumentDevice, docs/observability.md).
//
// The paper's tables and figures, the contract checker, the fleet-packing,
// isolation and KV tenant-mix studies, and the CSV/JSON exports of every
// suite are driven from the commands under cmd/ (README.md). The package
// examples pin the library side of Implications #1, #3, #4 and #5.
//
// Quick start:
//
//	eng := essdsim.NewEngine()
//	dev := essdsim.NewESSD1(eng, 42)
//	essdsim.Precondition(dev, true)
//	res := essdsim.Run(dev, essdsim.Workload{
//	    Pattern:    essdsim.RandWrite,
//	    BlockSize:  4 << 10,
//	    QueueDepth: 1,
//	    Duration:   500 * essdsim.Millisecond,
//	})
//	fmt.Println(res.Lat.Summarize())
package essdsim

import (
	"context"
	"fmt"
	"io"

	"essdsim/internal/blockdev"
	"essdsim/internal/churn"
	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/fio"
	"essdsim/internal/fleet"
	"essdsim/internal/harness"
	"essdsim/internal/obs"
	"essdsim/internal/profiles"
	"essdsim/internal/qos"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/slo"
	"essdsim/internal/ssd"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
)

// Core simulation types.
type (
	// Engine is the discrete-event simulation engine devices run on.
	Engine = sim.Engine
	// Time is a point in simulated time (nanoseconds).
	Time = sim.Time
	// Duration is a span of simulated time (nanoseconds).
	Duration = sim.Duration
	// Device is a simulated block storage device.
	Device = blockdev.Device
	// Request is one asynchronous block I/O.
	Request = blockdev.Request
)

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Block operation types.
const (
	OpRead  = blockdev.Read
	OpWrite = blockdev.Write
	OpTrim  = blockdev.Trim
	OpFlush = blockdev.Flush
)

// Workload types.
type (
	// Workload describes one fio-style run (pattern, bs, qd, bounds).
	Workload = workload.Spec
	// WorkloadResult holds the measurements of one run.
	WorkloadResult = workload.Result
	// Pattern is a fio-style access pattern.
	Pattern = workload.Pattern
)

// Access patterns.
const (
	RandWrite = workload.RandWrite
	SeqWrite  = workload.SeqWrite
	RandRead  = workload.RandRead
	SeqRead   = workload.SeqRead
	Mixed     = workload.Mixed
)

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewESSD1 builds the calibrated ESSD-1 (Amazon AWS io2 class) volume.
func NewESSD1(eng *Engine, seed uint64) *essd.ESSD {
	return profiles.NewESSD1(eng, sim.NewRNG(seed, seed^0x1))
}

// NewESSD2 builds the calibrated ESSD-2 (Alibaba Cloud PL3 class) volume.
func NewESSD2(eng *Engine, seed uint64) *essd.ESSD {
	return profiles.NewESSD2(eng, sim.NewRNG(seed, seed^0x2))
}

// NewLocalSSD builds the calibrated local SSD (Samsung 970 Pro class).
func NewLocalSSD(eng *Engine, seed uint64) *ssd.SSD {
	return profiles.NewSSD(eng, sim.NewRNG(seed, seed^0x3))
}

// NewDevice builds a device by profile name; ProfileNames lists the
// valid names.
func NewDevice(name string, eng *Engine, seed uint64) (Device, error) {
	return profiles.ByName(name, eng, sim.NewRNG(seed, seed^0x4))
}

// Shared-backend multi-tenancy types: the storage side of the stack
// (cluster + fabric + background cleaner) is a Backend that any number of
// volumes attach to, as in the paper's disaggregated Fig 1. Attached
// volumes contend on the backend's resources and the backend attributes
// debt, cluster operations, and fabric bytes per volume.
type (
	// Backend is a shared storage backend (one cluster + one fabric).
	Backend = essd.Backend
	// BackendConfig parameterizes a shared backend.
	BackendConfig = essd.BackendConfig
	// VolumeConfig parameterizes one volume attached to a backend.
	VolumeConfig = essd.VolumeConfig
	// Volume is an ESSD volume attached to a (possibly shared) backend.
	Volume = essd.ESSD
)

// NewBackend builds a shared storage backend on the engine. Attach volumes
// with AttachVolume (or Backend.Attach).
func NewBackend(eng *Engine, cfg BackendConfig, seed uint64) *Backend {
	return essd.NewBackend(eng, cfg, sim.NewRNG(seed, seed^0x6))
}

// AttachVolume attaches a volume to the shared backend with a fresh RNG
// built from the seed and decorrelated by the volume name. Because each
// call constructs its own RNG (nothing shared between calls), attach
// order does not perturb other volumes' draws — unlike Backend.Attach
// calls sharing one parent RNG, whose order is part of the deterministic
// construction sequence.
func AttachVolume(b *Backend, cfg VolumeConfig, seed uint64) *Volume {
	return b.Attach(cfg, sim.NewRNG(seed, seed^0x7))
}

// NeighborBackendConfig returns the shared backend used by the
// noisy-neighbor studies: ESSD-1-class fabric and cluster with a modest
// background cleaner.
func NeighborBackendConfig() BackendConfig { return profiles.NeighborBackendConfig() }

// NeighborVolumeConfig returns the per-volume half of a tenant on the
// neighbor backend: gp3-class budgets with a tight spare-capacity margin.
func NeighborVolumeConfig(name string) VolumeConfig { return profiles.NeighborVolumeConfig(name) }

// ProfileNames lists the valid NewDevice profile names.
func ProfileNames() []string { return profiles.Names() }

// Run executes a workload on a device, driving its engine until every
// outstanding I/O drains, and returns the measurements.
func Run(dev Device, spec Workload) *WorkloadResult { return workload.Run(dev, spec) }

// Open-loop workload types.
type (
	// OpenWorkload describes an arrival-driven (open-loop) run: requests
	// issue on a schedule regardless of completions.
	OpenWorkload = workload.OpenSpec
	// OpenWorkloadResult holds open-loop measurements, including the
	// completion timelines used for latency-cliff analysis.
	OpenWorkloadResult = workload.OpenResult
	// Arrival is an open-loop arrival process.
	Arrival = workload.Arrival
)

// Arrival processes.
const (
	ArrivalUniform = workload.Uniform
	ArrivalPoisson = workload.Poisson
	ArrivalBursty  = workload.Bursty
)

// RunOpen executes an open-loop workload on a device, driving its engine
// until every request completes.
func RunOpen(dev Device, spec OpenWorkload) *OpenWorkloadResult {
	return workload.RunOpen(dev, spec)
}

// Tenant-mix types: several generators driving distinct volumes inside one
// engine — the multi-tenant regime where volumes sharing a Backend
// interfere.
type (
	// Tenant pairs one volume with its open-loop generator.
	Tenant = workload.Tenant
	// TenantResult holds one tenant's measurements from RunTenantMix.
	TenantResult = workload.TenantResult
)

// RunTenantMix drives several tenants' generators concurrently inside one
// engine: all generators start, then a single engine run drains them, so
// the tenants' I/O interleaves the way concurrent guests on a shared
// backend would. Results are returned in tenant order. It panics on
// invalid tenants (no device, device on another engine, both or neither
// spec set) — the same contract as Run and RunOpen.
func RunTenantMix(eng *Engine, tenants []Tenant) []*TenantResult {
	return workload.RunTenants(eng, tenants)
}

// Precondition prepares a device for measurement: write experiments get a
// GC-free half-filled device; read experiments a fully written one.
func Precondition(dev Device, forWrites bool) { expgrid.Precondition(dev, forWrites) }

// ParseFioJobs parses a fio job file subset into named workloads.
func ParseFioJobs(r io.Reader) ([]fio.Job, error) { return fio.Parse(r) }

// Trace types.
type (
	// TraceRecord is one traced I/O.
	TraceRecord = trace.Record
	// TraceReplayResult summarizes a trace replay.
	TraceReplayResult = trace.ReplayResult
)

// ReadTrace parses a text trace.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return trace.Read(r) }

// WriteTrace serializes a text trace.
func WriteTrace(w io.Writer, recs []TraceRecord) error { return trace.Write(w, recs) }

// ReplayTrace replays records against a device open-loop.
func ReplayTrace(dev Device, recs []TraceRecord) *TraceReplayResult {
	return trace.Replay(dev, recs)
}

// Experiment-grid types: declarative parameter sweeps executed on a
// parallel worker pool with deterministic per-cell seeding and output
// order. See internal/expgrid's package documentation for the
// cell-isolation and seed-derivation model.
type (
	// Sweep declares an experiment grid: the cross product of device
	// factories, patterns, block sizes, queue depths, and write ratios.
	Sweep = expgrid.Sweep
	// SweepCellResult pairs a cell with its workload measurements.
	SweepCellResult = expgrid.CellResult
	// SweepRunner executes a Sweep's cells on a pool of workers.
	SweepRunner = expgrid.Runner
	// NamedFactory is one value of a sweep's device axis.
	NamedFactory = expgrid.NamedFactory
	// SweepPrecond selects how a cell's device is prepared before
	// measurement (see the Precond* constants).
	SweepPrecond = expgrid.Precond
	// SweepKind selects the per-cell workload family of a Sweep (see the
	// SweepClosed/SweepOpen/SweepTraceReplay constants).
	SweepKind = expgrid.Kind
)

// Sweep kinds: closed-loop fio-style cells (the default), open-loop
// arrival-driven cells with arrival-shape and offered-rate axes,
// trace-replay cells (one replay of Sweep.Trace per device), and
// tenant-mix cells (several generators on distinct volumes inside one
// engine, with an aggressor-count axis).
const (
	SweepClosed      = expgrid.Closed
	SweepOpen        = expgrid.Open
	SweepTraceReplay = expgrid.TraceReplay
	SweepTenantMix   = expgrid.TenantMix
)

// Device-preconditioning modes for Sweep.Precondition.
const (
	PrecondAuto   = expgrid.PrecondAuto
	PrecondWrites = expgrid.PrecondWrites
	PrecondFull   = expgrid.PrecondFull
	PrecondNone   = expgrid.PrecondNone
)

// ProfileDevices builds a sweep device axis from profile names (see
// ProfileNames). A cell whose profile name is unknown fails with a
// descriptive error when it runs.
func ProfileDevices(names ...string) []NamedFactory {
	return ProfileDevicesQoS(Isolation{}, 0, 0, names...)
}

// RunSweep executes every cell of the sweep on workers goroutines
// (GOMAXPROCS when workers <= 0) and returns results in deterministic
// enumeration order. Cancel ctx to stop early.
func RunSweep(ctx context.Context, sw Sweep, workers int) ([]SweepCellResult, error) {
	return expgrid.Runner{Workers: workers}.Run(ctx, sw)
}

// Burst-credit scenario types: the Observation #4 / Implication #4 suite
// sweeping burstable tiers across write ratio × arrival shape × offered
// rate on the expgrid worker pool.
type (
	// BurstSweep declares a burst-credit exhaustion suite.
	BurstSweep = scenario.BurstSweep
	// BurstReport is the suite's full measurement.
	BurstReport = scenario.BurstReport
)

// RunBurstScenario executes a burst-credit scenario sweep; zero-valued
// BurstSweep fields take defaults (the two calibrated burstable tiers,
// write ratios 0/50/100, uniform and bursty arrivals). Results are
// deterministic for any worker count, and a cache-warm re-run (BurstSweep.Cache)
// is byte-identical to a cold one.
func RunBurstScenario(ctx context.Context, s BurstSweep) (*BurstReport, error) {
	return scenario.RunBurst(ctx, s)
}

// FormatBurstReport writes the scenario report as an aligned table.
func FormatBurstReport(w io.Writer, r *BurstReport) { scenario.FormatBurst(w, r) }

// Noisy-neighbor scenario types: a steady victim tenant vs bursty
// aggressor tenants on one shared Backend, swept over aggressor count ×
// rate × write ratio.
type (
	// NeighborSweep declares a noisy-neighbor suite.
	NeighborSweep = scenario.NeighborSweep
	// NeighborReport is the suite's full measurement.
	NeighborReport = scenario.NeighborReport
)

// RunNeighborScenario executes a noisy-neighbor sweep; zero-valued
// NeighborSweep fields take defaults (victim 64 KiB mixed at 300 req/s vs
// 0/1/2/4 bursty write-heavy aggressors at 800 and 1600 req/s each).
// Results are deterministic for any worker count, and a cache-warm re-run
// (NeighborSweep.Cache) simulates zero new cells.
func RunNeighborScenario(ctx context.Context, s NeighborSweep) (*NeighborReport, error) {
	return scenario.RunNeighbor(ctx, s)
}

// FormatNeighborReport writes the scenario report as an aligned table.
func FormatNeighborReport(w io.Writer, r *NeighborReport) { scenario.FormatNeighbor(w, r) }

// Isolation selects the backend's per-tenant QoS scheduling policy and
// knobs: every contention point of the shared backend (cluster streams,
// cleaner debt pool, fabric links) dispatches through a pluggable
// scheduling policy, with per-volume weights and reserved rates carried by
// VolumeConfig. The zero Isolation value is the original FIFO stack,
// bit-for-bit.
type Isolation = qos.Isolation

// Isolation scheduling policies.
const (
	IsolationFIFO        = qos.IsolationFIFO
	IsolationWFQ         = qos.IsolationWFQ
	IsolationReservation = qos.IsolationReservation
)

// NewDeviceQoS builds a device by profile name with a backend isolation
// policy and per-volume QoS share applied. With the zero Isolation and no
// weight or reservation it is exactly NewDevice; otherwise the profile
// must be essd-class (a local SSD has no shared backend to schedule).
func NewDeviceQoS(name string, iso Isolation, weight, reservedBps float64, eng *Engine, seed uint64) (Device, error) {
	return profiles.ByNameQoS(name, iso, weight, reservedBps, eng, sim.NewRNG(seed, seed^0x4))
}

// ProfileDevicesQoS builds a sweep device axis like ProfileDevices but
// with an isolation policy and per-volume QoS share applied to every
// profile. Pair with Sweep.Variant so isolated cells cache separately.
func ProfileDevicesQoS(iso Isolation, weight, reservedBps float64, names ...string) []NamedFactory {
	devices := make([]NamedFactory, 0, len(names))
	for _, name := range names {
		name := name
		devices = append(devices, NamedFactory{
			Name: name,
			New: func(seed uint64) Device {
				dev, err := NewDeviceQoS(name, iso, weight, reservedBps, NewEngine(), seed)
				if err != nil {
					panic(err) // expgrid recovers this into CellResult.Err
				}
				return dev
			},
		})
	}
	return devices
}

// Fleet types: a catalog of tenant demands placed onto many shared
// backends, the population a churn study evolves.
type (
	// FleetSpec declares a fleet: demands, the backends' isolation
	// policy, budgets, policies, and the SLO targets.
	FleetSpec = fleet.Spec
	// FleetDemand describes one tenant volume to place.
	FleetDemand = fleet.Demand
)

// Fleet churn control-plane types: volume lifecycle events over a demand
// catalog, online placement, and pluggable rebalancing, measured epoch by
// epoch through the same cell machinery the static fleet studies use.
type (
	// ChurnSpec declares a churn study: an embedded FleetSpec (catalog,
	// isolation, budgets, SLOs, epoch length) plus the churn process,
	// placement policy, rebalancer, and migration budget.
	ChurnSpec = churn.Spec
	// ChurnEvent is one scripted lifecycle event.
	ChurnEvent = churn.Event
	// ChurnReport is the study outcome: the per-epoch time series, the
	// event audit trail, and fleet-level totals.
	ChurnReport = churn.Report
	// Rebalancer plans volume migrations between control epochs.
	Rebalancer = churn.Rebalancer
	// NeverMove is the do-nothing rebalancer: the baseline that accepts
	// whatever packing lifecycle events leave behind.
	NeverMove = churn.NeverMove
	// ThresholdRebalance migrates volumes off backends whose nominal
	// utilization (offered / backend budget) exceeds 1, up to the spec's
	// migration budget.
	ThresholdRebalance = churn.Threshold
	// DrainRebalance is the lazy variant of ThresholdRebalance: the same
	// trigger, at most one migration per epoch.
	DrainRebalance = churn.Drain
)

// Lifecycle event kinds for scripted churn timelines (ChurnSpec.Script).
const (
	ChurnCreate   = churn.Create
	ChurnDelete   = churn.Delete
	ChurnExpand   = churn.Expand
	ChurnShrink   = churn.Shrink
	ChurnSnapshot = churn.Snapshot
)

// RunChurn executes a fleet churn study: the placement policy packs the
// initial catalog, each epoch applies lifecycle events (create, expand,
// shrink, delete, snapshot-as-write-burst) and the rebalancer's moves on
// the nominal demand numbers, and every epoch's backend populations are
// simulated through one parallel sweep — cells deduplicated across epochs
// and shared with static fleet studies on the same cache. Deterministic
// for any worker count; with Fleet.Cache a warm re-run simulates zero new
// cells.
func RunChurn(ctx context.Context, s ChurnSpec) (*ChurnReport, error) {
	return churn.Run(ctx, s)
}

// FormatChurnReport writes the per-epoch churn table with totals.
func FormatChurnReport(w io.Writer, r *ChurnReport) { churn.Format(w, r) }

// Sweep-result caching: a SweepCache memoizes cell results across sweeps
// and searches, keyed by the cell's coordinate hash plus a fingerprint of
// the sweep's result-shaping settings. Attach one via Sweep.Cache,
// BurstSweep.Cache, or SLOSearch.Cache; persist it with SaveFile/LoadFile.
type SweepCache = expgrid.Cache

// NewSweepCache returns an empty result cache holding at most capacity
// entries (a sensible default when capacity <= 0).
func NewSweepCache(capacity int) *SweepCache { return expgrid.NewCache(capacity) }

// Latency-SLO search types: binary-searching offered rate for the highest
// rate whose steady-state tail latency meets a target, reporting both the
// pre-exhaustion and the post-cliff (credit-floor) answers.
type (
	// SLOSearch declares one search: device × workload spec, rate range,
	// and latency target.
	SLOSearch = slo.Search
	// SLOTarget is the tail-latency objective (p99 and/or p99.9).
	SLOTarget = slo.Target
	// SLOReport is a completed search with both SLO-max rates and every
	// probe.
	SLOReport = slo.Report
)

// SearchSLO runs a latency-SLO search. Probes repeat coordinates, so
// attach a SweepCache to skip re-simulation; a cache-warm repeat run
// executes zero new cells and reproduces identical measurements and CSV
// output (only the probes' Cached flags and SLOReport.CellsRun record the
// difference).
func SearchSLO(ctx context.Context, s SLOSearch) (*SLOReport, error) {
	return slo.Run(ctx, s)
}

// FormatSLOReport writes a human-readable search report.
func FormatSLOReport(w io.Writer, r *SLOReport) { slo.Format(w, r) }

// FormatWorkloadResult prints a fio-like summary of a run.
func FormatWorkloadResult(w io.Writer, r *WorkloadResult) {
	harness.FormatWorkloadResult(w, r)
}

// Observability types (internal/obs): deterministic sampled request
// tracing and simulated-time state probes. Both planes are off by default
// and, when on, never perturb simulation results — traced runs are
// byte-identical to untraced ones.
type (
	// ObsConfig enables the observability planes: SampleEvery traces every
	// Nth request per volume, and a positive ProbeInterval samples state
	// gauges on that simulated-time cadence. A nil *ObsConfig is fully off.
	ObsConfig = obs.Config
	// ObsCapture is one simulation's observability output: a label plus
	// its tracer and (optional) prober.
	ObsCapture = obs.Capture
)

// InstrumentDevice attaches an observability capture to a single elastic
// device: a tracer sampling every cfg.SampleEvery-th request and, when
// cfg.ProbeInterval is positive, a prober over the device's shared
// backend (cluster debt and node queues, fabric backlogs, every attached
// volume's gauges). A nil cfg is fully off and returns a nil capture,
// which the exporters skip. Non-elastic devices (the local SSD) have no
// backend or QoS state to observe and are rejected.
func InstrumentDevice(dev Device, label string, cfg *ObsConfig) (*ObsCapture, error) {
	if cfg == nil {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, ok := dev.(*essd.ESSD)
	if !ok {
		return nil, fmt.Errorf("observability needs an elastic (essd-class) device; %s has no backend to trace", dev.Name())
	}
	cap := &ObsCapture{Label: label, Tracer: obs.NewTracer(cfg.SampleEvery)}
	e.SetTracer(cap.Tracer)
	if cfg.ProbeInterval > 0 {
		cap.Prober = obs.NewProber(cfg.ProbeInterval)
		e.Backend().InstallProbes(cap.Prober)
		cap.Prober.Attach(e.Engine())
	}
	return cap, nil
}

// WriteTraceEvents dumps the captures' spans as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing.
func WriteTraceEvents(w io.Writer, caps []*ObsCapture) error { return obs.WriteTraceEvents(w, caps) }

// WriteProbesCSV dumps the captures' state-probe series as CSV; see
// docs/formats.md for the schema.
func WriteProbesCSV(w io.Writer, caps []*ObsCapture) error { return obs.WriteProbesCSV(w, caps) }
