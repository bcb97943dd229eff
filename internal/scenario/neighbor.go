package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/obs"
	"essdsim/internal/profiles"
	"essdsim/internal/qos"
	"essdsim/internal/results"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
	"essdsim/internal/workload"
)

// NeighborSweep declares a noisy-neighbor suite: one steady open-loop
// victim tenant shares a storage backend with a swept number of bursty
// aggressor tenants, each volume attached to the same cluster, fabric, and
// background cleaner (essd.Backend). The grid sweeps aggressor count ×
// per-aggressor offered rate × aggressor write ratio through the expgrid
// tenant-mix kind, and the report measures the two cross-tenant couplings
// of the unwritten contract: victim tail-latency inflation (fabric and
// placement-group contention, Obs#1/#3) and shared-debt throttle onset
// (the pooled cleaner, Obs#2). Include 0 in AggressorCounts to get the
// solo-victim control cells the inflation columns are computed against.
// Zero-valued fields take defaults.
type NeighborSweep struct {
	// Axes.
	AggressorCounts         []int     // default 0, 1, 2, 4 (0 = control)
	AggressorRatesPerSec    []float64 // per-aggressor req/s (default 800, 1600)
	AggressorWriteRatiosPct []int     // default 100

	// Victim tenant: steady open-loop mixed I/O.
	VictimRatePerSec    float64          // default 300 req/s
	VictimOps           uint64           // default 3000 (a 10 s horizon at the default rate)
	VictimBlockSize     int64            // default 64 KiB
	VictimWriteRatioPct int              // default 50; pass -1 for a pure-read victim
	VictimArrival       workload.Arrival // default Uniform

	// Aggressor tenants: bursty mixed I/O, write-heavy by default. Each
	// aggressor issues enough requests to cover the victim's nominal
	// horizon at its own offered rate. The zero-valued arrival selects
	// Bursty — uniform aggressors are indistinguishable from a higher
	// victim rate, so they are not part of this suite's axes.
	AggressorBlockSize int64            // default 256 KiB
	AggressorArrival   workload.Arrival // default Bursty; Poisson selectable

	// Cache, when non-nil, serves already-computed cells from the
	// sweep-level result cache; NeighborReport.CachedCells counts the
	// skipped simulations.
	Cache *expgrid.Cache

	Seed    uint64
	Workers int    // expgrid pool size (0 = GOMAXPROCS)
	Label   string // seed decorrelation label (default "neighbor")

	// Isolation selects the backend's per-tenant QoS policy for every
	// cell (default fifo — the exact pre-isolation suite). The policy
	// changes only the backend's scheduling: cell seeds and hence every
	// tenant's arrival draws are identical across policies, so victim
	// tails compare scheduling effects and nothing else.
	Isolation qos.Isolation
	// VictimWeight is the victim volume's share under wfq/reservation
	// (default 1; aggressors always weigh 1). VictimReservedRate is the
	// victim's strictly-reserved bytes/s under reservation (default 2×
	// the victim's offered bytes/s, enough to cover its load with slack).
	VictimWeight       float64
	VictimReservedRate float64

	// Obs enables the observability planes for every cell: request
	// tracing at Obs.SampleEvery per volume and, when Obs.ProbeInterval
	// is positive, state probes on that simulated-time cadence.
	// Observability runs bypass cache reads (a cache-warm cell would
	// return its stored measurement without producing any capture) while
	// still refreshing the cache; measured results stay byte-identical to
	// unobserved runs. Nil (the default) is fully off.
	Obs *obs.Config

	// OnProgress, when non-nil, receives one expgrid.Progress per
	// completed cell (elapsed/ETA and cached count included). Invoked
	// serially, display-only.
	OnProgress func(expgrid.Progress)
}

func (s NeighborSweep) withDefaults() NeighborSweep {
	if len(s.AggressorCounts) == 0 {
		s.AggressorCounts = []int{0, 1, 2, 4}
	}
	if len(s.AggressorRatesPerSec) == 0 {
		s.AggressorRatesPerSec = []float64{800, 1600}
	}
	if len(s.AggressorWriteRatiosPct) == 0 {
		s.AggressorWriteRatiosPct = []int{100}
	}
	if s.VictimRatePerSec <= 0 {
		s.VictimRatePerSec = 300
	}
	if s.VictimOps == 0 {
		s.VictimOps = 3000
	}
	if s.VictimBlockSize <= 0 {
		s.VictimBlockSize = 64 << 10
	}
	if s.VictimWriteRatioPct == 0 {
		s.VictimWriteRatioPct = 50
	}
	if s.AggressorBlockSize <= 0 {
		s.AggressorBlockSize = 256 << 10
	}
	if s.AggressorArrival == workload.Uniform {
		s.AggressorArrival = workload.Bursty
	}
	if s.Label == "" {
		s.Label = "neighbor"
	}
	if s.Isolation.Policy == qos.IsolationReservation && s.VictimReservedRate <= 0 {
		s.VictimReservedRate = 2 * s.VictimRatePerSec * float64(s.VictimBlockSize)
	}
	return s
}

// BuildTenants constructs one cell's shared backend and tenant mix on a
// fresh engine: a preconditioned victim volume plus c.Aggressors
// preconditioned aggressor volumes, all attached to one
// profiles.NeighborBackendConfig backend. It is the sweep's expgrid
// Tenants hook, exported so tests and studies can reproduce a single cell
// exactly.
func (s NeighborSweep) BuildTenants(c expgrid.Cell) (*sim.Engine, []workload.Tenant) {
	s = s.withDefaults()
	eng := sim.AcquireEngine() // released by expgrid after the cell drains
	rng := sim.NewRNG(c.Seed, c.Seed^0x5c)
	bcfg := profiles.NeighborBackendConfig()
	bcfg.Isolation = s.Isolation
	be := essd.NewBackend(eng, bcfg, rng.Derive("backend"))
	return eng, s.AttachTenants(be, rng, c)
}

// AttachTenants attaches the cell's victim and aggressor volumes to the
// given backend and returns the tenant mix. Splitting it from
// BuildTenants lets the interference tests attach the identical tenants
// to private backends instead, as a no-sharing control.
func (s NeighborSweep) AttachTenants(be *essd.Backend, rng *sim.RNG, c expgrid.Cell) []workload.Tenant {
	s = s.withDefaults()
	vcfg := profiles.NeighborVolumeConfig("victim")
	vcfg.Weight = s.VictimWeight
	vcfg.ReservedRate = s.VictimReservedRate
	victim := be.Attach(vcfg, rng)
	victim.Precondition(1)
	victimRatio := float64(s.VictimWriteRatioPct) / 100
	if s.VictimWriteRatioPct < 0 { // -1 sentinel: pure-read victim
		victimRatio = 0
	}
	tenants := []workload.Tenant{{
		Name: "victim",
		Dev:  victim,
		Open: &workload.OpenSpec{
			Pattern:    workload.Mixed,
			BlockSize:  s.VictimBlockSize,
			WriteRatio: victimRatio,
			RatePerSec: s.VictimRatePerSec,
			Arrival:    s.VictimArrival,
			Count:      s.VictimOps,
			Seed:       c.Seed ^ 0x11c7,
		},
	}}
	horizon := float64(s.VictimOps) / s.VictimRatePerSec
	aggrOps := uint64(horizon * c.RatePerSec)
	if aggrOps == 0 {
		aggrOps = 1
	}
	ratio := float64(c.WriteRatioPct) / 100
	if c.WriteRatioPct < 0 {
		ratio = 1
	}
	for i := 0; i < c.Aggressors; i++ {
		name := fmt.Sprintf("aggr%d", i)
		aggr := be.Attach(profiles.NeighborVolumeConfig(name), rng)
		aggr.Precondition(1)
		tenants = append(tenants, workload.Tenant{
			Name: name,
			Dev:  aggr,
			Open: &workload.OpenSpec{
				Pattern:    workload.Mixed,
				BlockSize:  s.AggressorBlockSize,
				WriteRatio: ratio,
				RatePerSec: c.RatePerSec,
				Arrival:    s.AggressorArrival,
				Count:      aggrOps,
				Seed:       c.Seed ^ uint64(0x1660+i),
			},
		})
	}
	return tenants
}

// NeighborInfo is the post-run capture of InspectNeighbors: the victim's
// throttle state and the shared backend's pooled debt, attributed per
// tenant. It is JSON-round-trippable so cached cells survive persistence
// (see DecodeNeighborInfo).
type NeighborInfo struct {
	Throttled    bool         `json:"throttled"`
	ThrottledAt  sim.Time     `json:"throttled_at"` // -1 when never engaged
	SharedDebt   int64        `json:"shared_debt"`  // pooled debt at end of run
	VictimDebt   int64        `json:"victim_debt"`  // debt the victim contributed
	AggrDebt     int64        `json:"aggr_debt"`    // debt the aggressors contributed
	AggrFabricUp int64        `json:"aggr_fabric_up"`
	BudgetStall  sim.Duration `json:"stall"` // victim throughput-budget wait
}

// InspectNeighbors is the expgrid InspectMix hook of the neighbor suite:
// it captures the victim's (tenants[0]) flow-limiter state and the shared
// backend's per-volume debt and fabric attribution while the cell's
// devices are still alive.
func InspectNeighbors(tenants []workload.Tenant, _ expgrid.Cell) any {
	info := NeighborInfo{ThrottledAt: -1}
	victim, ok := tenants[0].Dev.(*essd.ESSD)
	if !ok {
		return info
	}
	info.Throttled = victim.Throttled()
	if info.Throttled {
		info.ThrottledAt = victim.ThrottledAt()
	}
	info.BudgetStall = victim.BudgetStall()
	be := victim.Backend()
	info.SharedDebt = be.Debt()
	for _, vs := range be.VolumeStats() {
		if vs.Name == "victim" {
			info.VictimDebt += vs.DebtAdded
		} else {
			info.AggrDebt += vs.DebtAdded
			info.AggrFabricUp += vs.FabricUp
		}
	}
	return info
}

// DecodeNeighborInfo is the expgrid DecodeInfo hook matching
// InspectNeighbors: it rehydrates a persisted NeighborInfo from its JSON
// form.
func DecodeNeighborInfo(raw []byte) (any, error) {
	var info NeighborInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return nil, err
	}
	return info, nil
}

// NeighborCell is one measured point of the suite.
type NeighborCell struct {
	Aggressors        int
	AggrRatePerSec    float64 // per-aggressor offered requests/s
	AggrWriteRatioPct int
	AggrOfferedBps    float64 // aggregate aggressor offered bytes/s

	// Victim measurements over the victim's own run window.
	VictimOps            uint64
	VictimBytes          int64
	VictimElapsed        sim.Duration
	VictimLat            stats.Summary
	VictimThroughputBps  float64
	VictimMaxOutstanding int

	// Inflation of the victim tail vs the aggressors==0 control cell at
	// the same (rate, write ratio) coordinates; 0 when the sweep has no
	// control cells.
	P99Inflation  float64
	P999Inflation float64

	// Shared-debt coupling: the victim's flow-limiter engagement and the
	// pooled cleaner debt, attributed per tenant group.
	Throttled     bool
	ThrottleOnset sim.Duration // -1 when the limiter never engaged
	SharedDebt    int64
	VictimDebt    int64
	AggrDebt      int64
	BudgetStall   sim.Duration

	// Aggregate aggressor completions (all aggressor tenants).
	AggrOps   uint64
	AggrBytes int64

	Cached bool // served from the sweep cache
}

// NeighborReport is the full suite's measurement.
type NeighborReport struct {
	VictimRatePerSec float64
	VictimBlockSize  int64
	VictimOps        uint64
	Cells            []NeighborCell
	// CachedCells counts cells served from the sweep cache instead of a
	// fresh simulation.
	CachedCells int
	// Isolation is the backend QoS policy every cell ran under (zero
	// value: the default fifo).
	Isolation qos.Isolation
	// Captures holds each cell's observability capture in enumeration
	// order, and Explanations the matching obs.Explain attribution
	// reports. Both are nil unless the sweep ran with Obs set.
	Captures     []*obs.Capture
	Explanations []*obs.Explanation
}

// RunNeighbor executes the noisy-neighbor suite on the expgrid worker pool
// and folds the cells into a report. Results are deterministic and
// identical for any worker count. Cancel ctx to stop early.
func RunNeighbor(ctx context.Context, s NeighborSweep) (*NeighborReport, error) {
	s = s.withDefaults()
	sw := expgrid.Sweep{
		Kind:            expgrid.TenantMix,
		Devices:         []expgrid.NamedFactory{{Name: "shared"}},
		AggressorCounts: s.AggressorCounts,
		RatesPerSec:     s.AggressorRatesPerSec,
		WriteRatiosPct:  s.AggressorWriteRatiosPct,
		Tenants:         s.BuildTenants,
		InspectMix:      InspectNeighbors,
		Cache:           s.Cache,
		DecodeInfo:      DecodeNeighborInfo,
		Seed:            s.Seed,
		Label:           s.Label,
	}
	// The Tenants hook's inputs (victim shape, aggressor shape) are
	// invisible to the expgrid fingerprint, which only hashes Sweep
	// fields. Fold them into the label so two NeighborSweeps share cache
	// entries (and cell seeds) exactly when they would build identical
	// tenant mixes — the same contract BurstSweep gets from fingerprinted
	// OpenOps/BlockSizes fields.
	sw.Label = fmt.Sprintf("%s|v%d@%g/%dwr%d/%s|a%d/%s", s.Label,
		s.VictimOps, s.VictimRatePerSec, s.VictimBlockSize,
		s.VictimWriteRatioPct, s.VictimArrival,
		s.AggressorBlockSize, s.AggressorArrival)
	// The isolation axis goes in the sweep Variant, not the label: each
	// policy caches separately (the backend schedules differently) while
	// the cell seeds — and hence every tenant's arrival draws — stay
	// identical across policies.
	if s.Isolation.Enabled() || s.VictimWeight != 0 || s.VictimReservedRate != 0 {
		sw.Variant = fmt.Sprintf("iso:%s|vw%g|vr%g",
			s.Isolation.Signature(), s.VictimWeight, s.VictimReservedRate)
	}
	// Observability: wrap the Tenants hook so each cell gets its own
	// tracer/prober capture (one writer per Cell.Index — race-free under
	// any worker count), and force fresh simulations so every cell
	// actually produces one.
	var caps []*obs.Capture
	if s.Obs.Enabled() {
		if err := s.Obs.Validate(); err != nil {
			return nil, err
		}
		sw.ForceRun = true
		caps = make([]*obs.Capture, len(sw.Cells()))
		inner := sw.Tenants
		cfg := *s.Obs
		sw.Tenants = func(c expgrid.Cell) (*sim.Engine, []workload.Tenant) {
			eng, tenants := inner(c)
			caps[c.Index] = instrumentTenants(eng, tenants, neighborCellLabel(c), cfg)
			return eng, tenants
		}
	}
	results, err := expgrid.Runner{Workers: s.Workers, OnProgress: s.OnProgress}.Run(ctx, sw)
	if err != nil {
		return nil, err
	}
	rep := &NeighborReport{
		VictimRatePerSec: s.VictimRatePerSec,
		VictimBlockSize:  s.VictimBlockSize,
		VictimOps:        s.VictimOps,
		Isolation:        s.Isolation,
	}
	for _, r := range results {
		rep.Cells = append(rep.Cells, foldNeighborCell(r, s))
		if r.Cached {
			rep.CachedCells++
		}
	}
	if caps != nil {
		rep.Captures = caps
		vcfg := profiles.NeighborVolumeConfig("victim")
		thr := vcfg.SpareFrac * float64(vcfg.Capacity)
		for i, r := range results {
			rep.Explanations = append(rep.Explanations, neighborExplain(caps[i], r, thr))
		}
	}
	// Inflation columns compare each cell's victim tail against the
	// solo-victim control sharing its (rate, ratio) coordinates.
	type key struct {
		rate  float64
		ratio int
	}
	controls := map[key]stats.Summary{}
	for _, c := range rep.Cells {
		if c.Aggressors == 0 {
			controls[key{c.AggrRatePerSec, c.AggrWriteRatioPct}] = c.VictimLat
		}
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		ctrl, ok := controls[key{c.AggrRatePerSec, c.AggrWriteRatioPct}]
		if !ok || c.Aggressors == 0 {
			continue
		}
		if ctrl.P99 > 0 {
			c.P99Inflation = float64(c.VictimLat.P99) / float64(ctrl.P99)
		}
		if ctrl.P999 > 0 {
			c.P999Inflation = float64(c.VictimLat.P999) / float64(ctrl.P999)
		}
	}
	return rep, nil
}

func foldNeighborCell(r expgrid.CellResult, s NeighborSweep) NeighborCell {
	victim := r.Mix[0]
	info := r.Info.(NeighborInfo)
	cell := NeighborCell{
		Aggressors:        r.Aggressors,
		AggrRatePerSec:    r.RatePerSec,
		AggrWriteRatioPct: r.WriteRatioPct,
		AggrOfferedBps:    float64(r.Aggressors) * r.RatePerSec * float64(s.AggressorBlockSize),

		VictimOps:            victim.Open.Ops,
		VictimBytes:          victim.Open.Bytes,
		VictimElapsed:        victim.Open.Elapsed,
		VictimLat:            victim.Open.Lat.Summarize(),
		VictimThroughputBps:  victim.Open.Throughput(),
		VictimMaxOutstanding: victim.Open.MaxOutstanding,

		Throttled:     info.Throttled,
		ThrottleOnset: -1,
		SharedDebt:    info.SharedDebt,
		VictimDebt:    info.VictimDebt,
		AggrDebt:      info.AggrDebt,
		BudgetStall:   info.BudgetStall,

		Cached: r.Cached,
	}
	if info.Throttled && info.ThrottledAt >= 0 {
		// Cell engines start at time zero and preconditioning consumes no
		// virtual time, so the engagement timestamp is already relative to
		// the cell start.
		cell.ThrottleOnset = sim.Duration(info.ThrottledAt)
	}
	for _, t := range r.Mix[1:] {
		cell.AggrOps += t.Open.Ops
		cell.AggrBytes += t.Open.Bytes
	}
	return cell
}

// FormatNeighbor writes the report as an aligned table: one row per cell
// with the victim's tail latency, its inflation over the solo-victim
// control, and the shared-debt throttle columns.
func FormatNeighbor(w io.Writer, r *NeighborReport) {
	fmt.Fprintf(w, "Noisy-neighbor scenario: victim %d KiB mixed @ %.0f req/s (%d requests) vs bursty aggressors on one shared backend\n",
		r.VictimBlockSize>>10, r.VictimRatePerSec, r.VictimOps)
	if r.Isolation.Enabled() {
		fmt.Fprintf(w, "isolation: %s\n", r.Isolation.Signature())
	}
	fmt.Fprintf(w, "%5s %9s %4s %9s %9s %9s %9s %7s %7s %10s %9s %9s\n",
		"aggrs", "rate/s", "wr%", "offered", "vic-p50", "vic-p99", "vic-p99.9",
		"p99-x", "p999-x", "throttle@", "debt", "aggrMB/s")
	for _, c := range r.Cells {
		onset := "-"
		if c.ThrottleOnset >= 0 {
			onset = fmt.Sprintf("%.2fs", c.ThrottleOnset.Seconds())
		}
		infl99, infl999 := "-", "-"
		if c.P99Inflation > 0 {
			infl99 = fmt.Sprintf("%.2f", c.P99Inflation)
		}
		if c.P999Inflation > 0 {
			infl999 = fmt.Sprintf("%.2f", c.P999Inflation)
		}
		aggrBW := "-"
		if c.Aggressors > 0 && c.VictimElapsed > 0 {
			aggrBW = fmt.Sprintf("%.1f", float64(c.AggrBytes)/c.VictimElapsed.Seconds()/1e6)
		}
		fmt.Fprintf(w, "%5d %9.0f %4d %8.1fM %9s %9s %9s %7s %7s %10s %8dM %9s\n",
			c.Aggressors, c.AggrRatePerSec, c.AggrWriteRatioPct, c.AggrOfferedBps/1e6,
			results.Latency(c.VictimLat.P50), results.Latency(c.VictimLat.P99), results.Latency(c.VictimLat.P999),
			infl99, infl999, onset, c.SharedDebt/1e6, aggrBW)
	}
}
