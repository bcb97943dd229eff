package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/profiles"
	"essdsim/internal/results"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
	"essdsim/internal/workload"
	"essdsim/kv"
)

// KVMixSweep declares the KV tenant-mix suite: several key-value tenants
// — each an LSM or page-store engine (Implication #3's two write-path
// designs) on its own elastic volume of one shared backend — driven by
// open-loop zipfian point reads and writes inside one engine. The grid
// sweeps engine design × key skew × value size × backend tier through the
// expgrid KVMix kind; LSM flush/compaction bursts and page-store
// read-before-write misses are the natural aggressors, so the report
// shows how an engine's background work inflates its neighbors' operation
// tails on a shared fabric. Zero-valued fields take defaults.
type KVMixSweep struct {
	// Axes.
	Engines    []string  // engine designs: "lsm", "pagestore" (default both)
	Skews      []float64 // zipfian key skews in [0, 1) (default 0, 0.99)
	ValueSizes []int64   // put value sizes in bytes (default 1024)
	Tiers      []string  // backend tier profile names (default essd1)

	// Per-tenant shape, identical for every tenant of a cell.
	Tenants      int              // tenants sharing each cell's backend (default 3)
	OpsPerTenant uint64           // operations per tenant (default 1500)
	RatePerSec   float64          // per-tenant offered op rate (default 4000)
	ReadFracPct  int              // percentage of ops that are Gets (default 50)
	Arrival      workload.Arrival // default Uniform; Poisson/Bursty selectable
	KeySpace     uint64           // distinct keys per tenant (default 1<<18)

	// MemtableBytes scales the LSM memtable so flush/compaction pressure
	// shows inside a cell's short horizon (default 256 KiB — a few dozen
	// flushes per tenant at the default ops). Page-store tenants ignore it.
	MemtableBytes int64

	// Cache, when non-nil, serves already-computed cells from the
	// sweep-level result cache; KVMixReport.CachedCells counts the
	// skipped simulations.
	Cache *expgrid.Cache

	Seed    uint64
	Workers int    // expgrid pool size (0 = GOMAXPROCS)
	Label   string // seed decorrelation label (default "kvmix")

	// OnProgress, when non-nil, receives one expgrid.Progress per
	// completed cell (elapsed/ETA and cached count included). Invoked
	// serially, display-only.
	OnProgress func(expgrid.Progress)
}

func (s KVMixSweep) withDefaults() KVMixSweep {
	if len(s.Engines) == 0 {
		s.Engines = []string{"lsm", "pagestore"}
	}
	if len(s.Skews) == 0 {
		s.Skews = []float64{0, 0.99}
	}
	if len(s.ValueSizes) == 0 {
		s.ValueSizes = []int64{1024}
	}
	if len(s.Tiers) == 0 {
		s.Tiers = []string{"essd1"}
	}
	if s.Tenants <= 0 {
		s.Tenants = 3
	}
	if s.OpsPerTenant == 0 {
		s.OpsPerTenant = 1500
	}
	if s.RatePerSec <= 0 {
		s.RatePerSec = 4000
	}
	if s.ReadFracPct == 0 {
		s.ReadFracPct = 50
	} else if s.ReadFracPct < 0 { // -1 sentinel: pure ingest
		s.ReadFracPct = 0
	}
	if s.KeySpace == 0 {
		s.KeySpace = 1 << 18
	}
	if s.MemtableBytes <= 0 {
		s.MemtableBytes = 256 << 10
	}
	if s.Label == "" {
		s.Label = "kvmix"
	}
	return s
}

// validate rejects coordinates the BuildKV hook cannot construct — an
// unknown engine design or a tier without a shared backend — before any
// cell simulates, with the axis named.
func (s KVMixSweep) validate() error {
	for _, e := range s.Engines {
		if e != "lsm" && e != "pagestore" {
			return fmt.Errorf("scenario: unknown kv engine %q (want lsm or pagestore)", e)
		}
	}
	for _, tier := range s.Tiers {
		if _, err := profiles.ConfigByName(tier); err != nil {
			return fmt.Errorf("scenario: kv tier %q: %w", tier, err)
		}
	}
	if s.ReadFracPct > 100 {
		return fmt.Errorf("scenario: kv read fraction %d%% out of [-1, 100]", s.ReadFracPct)
	}
	return nil
}

// BuildKV constructs one cell's shared backend and KV tenants on a fresh
// engine: s.Tenants fully preconditioned volumes attached to one backend
// of the cell's tier, each carrying a storage engine of the cell's design
// and an identical open-loop spec (per-tenant seeds decorrelate the
// draws). It is the sweep's expgrid KV hook, exported so tests and
// studies can reproduce a single cell exactly.
func (s KVMixSweep) BuildKV(c expgrid.Cell) (*sim.Engine, []kv.MixTenant) {
	s = s.withDefaults()
	eng := sim.AcquireEngine() // released by expgrid after the cell drains
	rng := sim.NewRNG(c.Seed, c.Seed^0x3d)
	cfg, err := profiles.ConfigByName(c.DeviceName)
	if err != nil {
		panic(err) // expgrid recovers this into CellResult.Err
	}
	bcfg, vcfg := cfg.Split()
	be := essd.NewBackend(eng, bcfg, rng.Derive("backend"))
	tenants := make([]kv.MixTenant, 0, s.Tenants)
	for i := 0; i < s.Tenants; i++ {
		vc := vcfg
		vc.Name = fmt.Sprintf("kv%d", i)
		vol := be.Attach(vc, rng)
		// Full fill: gets and compaction reads must hit written data.
		expgrid.Precondition(vol, false)
		var e kv.Engine
		switch c.KVEngine {
		case "lsm":
			lcfg := kv.DefaultLSMConfig()
			lcfg.MemtableBytes = s.MemtableBytes
			lcfg.L0CompactTrigger = 2
			e = kv.NewLSM(vol, lcfg)
		case "pagestore":
			e = kv.NewPageStore(vol, kv.DefaultPageStoreConfig(vol))
		default:
			panic(fmt.Sprintf("scenario: unknown kv engine %q", c.KVEngine))
		}
		tenants = append(tenants, kv.MixTenant{
			Name:   vc.Name,
			Engine: e,
			Spec: kv.MixSpec{
				Ops:        s.OpsPerTenant,
				ValueSize:  c.ValueSize,
				ReadFrac:   float64(s.ReadFracPct) / 100,
				RatePerSec: s.RatePerSec,
				Arrival:    s.Arrival,
				KeySpace:   s.KeySpace,
				ZipfTheta:  c.KVSkew,
				Seed:       c.Seed ^ uint64(0x6f00+i),
			},
		})
	}
	return eng, tenants
}

// KVMixInfo is the post-run capture of InspectKVMix: the shared backend's
// pooled cleaning debt and how many tenants' flow limiters engaged — the
// Obs#2 coupling driven by KV background work instead of raw writes. It
// is JSON-round-trippable so cached cells survive persistence.
type KVMixInfo struct {
	SharedDebt int64 `json:"shared_debt"` // pooled debt at end of run
	Throttled  int   `json:"throttled"`   // tenants whose limiter engaged
}

// InspectKVMix is the expgrid InspectKV hook of the KV suite: it captures
// the shared backend's debt pool and per-tenant throttle engagement while
// the cell's volumes are still alive.
func InspectKVMix(tenants []kv.MixTenant, _ expgrid.Cell) any {
	info := KVMixInfo{}
	for i, t := range tenants {
		vol, ok := t.Engine.Device().(*essd.ESSD)
		if !ok {
			continue
		}
		if i == 0 {
			info.SharedDebt = vol.Backend().Debt()
		}
		if vol.Throttled() {
			info.Throttled++
		}
	}
	return info
}

// DecodeKVMixInfo is the expgrid DecodeInfo hook matching InspectKVMix:
// it rehydrates a persisted KVMixInfo from its JSON form.
func DecodeKVMixInfo(raw []byte) (any, error) {
	var info KVMixInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return nil, err
	}
	return info, nil
}

// KVMixCell is one measured point of the suite, aggregated over the
// cell's tenants (they run identical specs on decorrelated seeds, so the
// aggregate is the cell's steady-state per-tenant behaviour).
type KVMixCell struct {
	Tier      string
	Engine    string
	Skew      float64
	ValueSize int64

	// Aggregate completions across all tenants.
	Ops     uint64
	Puts    uint64
	Gets    uint64
	Elapsed sim.Duration // longest tenant window
	// OpsPerSec sums every tenant's completed rate over its own window.
	OpsPerSec      float64
	Lat            stats.Summary // merged operation-latency histogram
	MaxOutstanding int           // worst tenant

	// Engine-level accounting summed across tenants.
	ReadAmp     float64 // device reads per get
	WriteAmp    float64 // device write bytes per user byte
	CacheHitPct float64 // read-path hits / (hits + misses)
	Stalls      uint64  // puts that waited on backpressure
	Flushes     uint64
	Compactions uint64

	// Shared-debt coupling.
	SharedDebt int64
	Throttled  int // tenants whose flow limiter engaged

	Cached bool // served from the sweep cache
}

// KVMixReport is the full suite's measurement.
type KVMixReport struct {
	Tenants      int
	OpsPerTenant uint64
	RatePerSec   float64
	ReadFracPct  int
	Cells        []KVMixCell
	// CachedCells counts cells served from the sweep cache instead of a
	// fresh simulation.
	CachedCells int
}

// RunKVMix executes the KV tenant-mix suite on the expgrid worker pool
// and folds the cells into a report. Results are deterministic and
// identical for any worker count. Cancel ctx to stop early.
func RunKVMix(ctx context.Context, s KVMixSweep) (*KVMixReport, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	devices := make([]expgrid.NamedFactory, 0, len(s.Tiers))
	for _, tier := range s.Tiers {
		devices = append(devices, expgrid.NamedFactory{Name: tier})
	}
	sw := expgrid.Sweep{
		Kind:         expgrid.KVMix,
		Devices:      devices,
		KVEngines:    s.Engines,
		KVSkews:      s.Skews,
		KVValueSizes: s.ValueSizes,
		KV:           s.BuildKV,
		InspectKV:    InspectKVMix,
		Cache:        s.Cache,
		DecodeInfo:   DecodeKVMixInfo,
		Seed:         s.Seed,
	}
	// The KV hook's inputs (tenant count, per-tenant shape, memtable
	// scale) are invisible to the expgrid fingerprint, which only hashes
	// Sweep fields. Fold them into the label so two KVMixSweeps share
	// cache entries (and cell seeds) exactly when they would build
	// identical tenant sets — the same contract the neighbor suite gives
	// its Tenants hook.
	sw.Label = fmt.Sprintf("%s|t%d@%g/%dops/rf%d/%s/ks%d/mb%d", s.Label,
		s.Tenants, s.RatePerSec, s.OpsPerTenant, s.ReadFracPct,
		s.Arrival, s.KeySpace, s.MemtableBytes)
	results, err := expgrid.Runner{Workers: s.Workers, OnProgress: s.OnProgress}.Run(ctx, sw)
	if err != nil {
		return nil, err
	}
	rep := &KVMixReport{
		Tenants:      s.Tenants,
		OpsPerTenant: s.OpsPerTenant,
		RatePerSec:   s.RatePerSec,
		ReadFracPct:  s.ReadFracPct,
	}
	for _, r := range results {
		rep.Cells = append(rep.Cells, foldKVMixCell(r))
		if r.Cached {
			rep.CachedCells++
		}
	}
	return rep, nil
}

func foldKVMixCell(r expgrid.CellResult) KVMixCell {
	info := r.Info.(KVMixInfo)
	cell := KVMixCell{
		Tier:      r.DeviceName,
		Engine:    r.KVEngine,
		Skew:      r.KVSkew,
		ValueSize: r.ValueSize,

		SharedDebt: info.SharedDebt,
		Throttled:  info.Throttled,
		Cached:     r.Cached,
	}
	lat := stats.NewHistogram()
	var agg kv.Stats
	for _, t := range r.KV {
		cell.Ops += t.Ops
		cell.Puts += t.Puts
		cell.Gets += t.Gets
		cell.OpsPerSec += t.OpsPerSec()
		if t.Elapsed > cell.Elapsed {
			cell.Elapsed = t.Elapsed
		}
		if t.MaxOutstanding > cell.MaxOutstanding {
			cell.MaxOutstanding = t.MaxOutstanding
		}
		lat.Merge(t.Lat)
		agg.Gets += t.Stats.Gets
		agg.GetReads += t.Stats.GetReads
		agg.UserBytes += t.Stats.UserBytes
		agg.DeviceWriteBytes += t.Stats.DeviceWriteBytes
		agg.CacheHits += t.Stats.CacheHits
		agg.CacheMisses += t.Stats.CacheMisses
		cell.Stalls += t.Stats.Stalls
		cell.Flushes += t.Stats.Flushes
		cell.Compactions += t.Stats.Compactions
	}
	cell.Lat = lat.Summarize()
	cell.ReadAmp = agg.ReadAmp()
	cell.WriteAmp = agg.WriteAmp()
	if lookups := agg.CacheHits + agg.CacheMisses; lookups > 0 {
		cell.CacheHitPct = 100 * float64(agg.CacheHits) / float64(lookups)
	}
	return cell
}

// FormatKVMix writes the report as an aligned table: one row per cell
// with the aggregate op rate, operation-latency tail, and the engine's
// amplification and cache columns.
func FormatKVMix(w io.Writer, r *KVMixReport) {
	fmt.Fprintf(w, "KV tenant mix: %d tenants x %d ops @ %.0f op/s each, %d%% gets, on one shared backend per cell\n",
		r.Tenants, r.OpsPerTenant, r.RatePerSec, r.ReadFracPct)
	fmt.Fprintf(w, "%6s %10s %5s %6s %9s %9s %9s %9s %6s %6s %5s %7s %6s %8s\n",
		"tier", "engine", "skew", "val", "ops/s", "p50", "p99", "p99.9",
		"rdamp", "wramp", "hit%", "stalls", "comps", "debt")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%6s %10s %5g %6d %9.0f %9s %9s %9s %6.2f %6.2f %5.1f %7d %6d %7dM\n",
			c.Tier, c.Engine, c.Skew, c.ValueSize, c.OpsPerSec,
			results.Latency(c.Lat.P50), results.Latency(c.Lat.P99), results.Latency(c.Lat.P999),
			c.ReadAmp, c.WriteAmp, c.CacheHitPct, c.Stalls, c.Compactions,
			c.SharedDebt/1e6)
	}
}
