package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/profiles"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
	"essdsim/internal/workload"
)

// Spec declares a fleet packing study: a catalog of tenant demands, the
// backends' isolation policy, the packing budgets, the placement policies
// to compare, and the fleet-wide SLO the violation columns are counted
// against. Zero-valued fields take defaults.
type Spec struct {
	// Demands is the tenant catalog (see SyntheticDemands, DemandFromTrace).
	Demands []Demand

	// Isolation is the per-tenant QoS policy of every backend (the zero
	// value is fifo).
	Isolation qos.Isolation

	// Backend and Volume are the templates every materialized backend and
	// tenant volume is built from (volume names come from the demands):
	// the noisy-neighbor profiles, an ESSD-1-class cluster with a modest
	// cleaner carrying Isolation and gp3-class volumes with a tight spare
	// margin. They are outputs: Normalize sets them, replacing whatever
	// they held.
	Backend essd.BackendConfig
	Volume  essd.VolumeConfig

	// Policies are compared in order (default DefaultPolicies: first-fit,
	// spread, best-fit, interference-aware).
	Policies []PlacementPolicy

	// Backends is the packing-density knob: how many backends every
	// policy may use. 0 derives the smallest count that fits the
	// catalog's nominal offered load within BackendBps per backend.
	Backends int
	// BackendBps is one backend's nominal offered-bytes/s budget
	// (default 900 MB/s, just under the neighbor volume class's 1 GB/s
	// throughput budget). Half of it is the backend's write-absorption
	// budget, the "credit budget" best-fit packs against.
	BackendBps float64

	// SLOP999 is the fleet-wide p99.9 target a tenant's whole-run p99.9
	// is checked against (default 80 ms; set negative to disable it). The
	// p99 target is fixed at 20 ms.
	SLOP999 sim.Duration

	// Horizon bounds tenants whose demand leaves Ops zero: each issues
	// RatePerSec × Horizon requests (default 2 s).
	Horizon sim.Duration

	// Cache, when non-nil, serves already-computed backend cells from the
	// sweep-level result cache; Report.CachedCells counts the skips.
	Cache *expgrid.Cache

	Seed    uint64
	Workers int    // expgrid pool size (0 = GOMAXPROCS)
	Label   string // seed decorrelation label (default "fleet")
}

// sloP99 is the fleet-wide p99 target a tenant's whole-run p99 is
// checked against.
const sloP99 = 20 * sim.Millisecond

// writeBps is one backend's write-absorption budget in bytes/s.
func (s Spec) writeBps() float64 { return s.BackendBps / 2 }

// Normalize returns the spec with every zero-valued field resolved to
// its documented default and the templates resolved — the exact spec Run
// executes. Callers that build on the fleet machinery (the churn control
// plane, the analytic screen) normalize first so their own planning sees
// the same budgets, templates, and horizon the simulation will use.
func (s Spec) Normalize() Spec { return s.withDefaults() }

func (s Spec) withDefaults() Spec {
	s.Backend = profiles.NeighborBackendConfig()
	s.Backend.Isolation = s.Isolation
	s.Volume = profiles.NeighborVolumeConfig("tenant")
	if len(s.Policies) == 0 {
		s.Policies = DefaultPolicies()
	}
	if s.BackendBps <= 0 {
		s.BackendBps = 0.9e9
	}
	if s.SLOP999 == 0 {
		s.SLOP999 = 80 * sim.Millisecond
	}
	if s.Horizon <= 0 {
		s.Horizon = 2 * sim.Second
	}
	if s.Backends <= 0 {
		var total float64
		for _, d := range s.Demands {
			total += d.OfferedBps()
		}
		s.Backends = int(math.Ceil(total / s.BackendBps))
		if s.Backends < 1 {
			s.Backends = 1
		}
	}
	if s.Label == "" {
		s.Label = "fleet"
	}
	return s
}

// Validate reports a descriptive error for a nonsensical spec.
func (s Spec) Validate() error {
	if len(s.Demands) == 0 {
		return fmt.Errorf("fleet: spec has no tenant demands")
	}
	seen := make(map[string]bool, len(s.Demands))
	for _, d := range s.Demands {
		if err := d.Validate(); err != nil {
			return err
		}
		if strings.ContainsAny(d.Name, "[]+|") {
			return fmt.Errorf("fleet: demand name %q contains a cell-naming character", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("fleet: duplicate demand name %q", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// PackingConstraints derives the packing budgets handed to every
// placement policy from the (normalized) spec — exported for callers
// that invoke PlacementPolicy.Place outside Run, such as the churn
// control plane's online placement decisions.
func (s Spec) PackingConstraints() Constraints { return s.constraints() }

// constraints derives the packing budgets handed to every policy,
// including the per-volume rate cap: the volume's throughput budget.
func (s Spec) constraints() Constraints {
	return Constraints{
		Backends:     s.Backends,
		BackendBps:   s.BackendBps,
		WriteBps:     s.writeBps(),
		EffectiveBps: s.Volume.ThroughputBudget,
	}
}

// cellDef is one simulation cell of the materialized study: a shared
// backend hosting members (demand indices), or a solo control (solo true)
// hosting one demand alone. Cells are identified by their population
// only — NOT by which policy or backend index produced them — so two
// policies that co-locate the same tenants share one cell: physically
// identical placements measure identically (no seed noise masquerading
// as a policy difference), simulate once, and share cache entries.
type cellDef struct {
	name    string
	solo    bool
	members []int
}

// backendRef ties one policy's materialized backend to its shared cell.
type backendRef struct {
	backend int // backend index within the policy's placement
	cell    int // index into the cellDef slice
}

// cells enumerates the study deterministically: one cell per distinct
// backend population across all policies (in first-appearance order),
// then one solo-control cell per distinct demand signature. refs maps
// each policy's non-empty backends, in index order, to their cells.
func (s Spec) cells(assignments [][]int) (defs []cellDef, refs [][]backendRef) {
	byName := make(map[string]int)
	refs = make([][]backendRef, len(assignments))
	for pi, assign := range assignments {
		byBackend := make([][]int, s.Backends)
		for di, b := range assign {
			byBackend[b] = append(byBackend[b], di)
		}
		for b, members := range byBackend {
			if len(members) == 0 {
				continue
			}
			names := make([]string, len(members))
			for i, di := range members {
				names[i] = s.Demands[di].Name
			}
			name := "mix[" + strings.Join(names, "+") + "]"
			ci, ok := byName[name]
			if !ok {
				ci = len(defs)
				byName[name] = ci
				defs = append(defs, cellDef{name: name, members: members})
			}
			refs[pi] = append(refs[pi], backendRef{backend: b, cell: ci})
		}
	}
	seen := make(map[string]bool)
	for di, d := range s.Demands {
		sig := d.signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		defs = append(defs, cellDef{
			name:    "solo[" + sig + "]",
			solo:    true,
			members: []int{di},
		})
	}
	return defs, refs
}

// MixCell is one simulation cell of a fleet-machinery study: a shared
// backend hosting the member demands together (or one demand alone when
// Solo). Name must uniquely encode the membership — cell seeds and cache
// entries are keyed on (label, name), so two cells may share a name only
// when their members are identical. Run derives its cells from the
// catalog; the churn control plane synthesizes cells whose members are
// scaled copies of catalog entries, encoding the scale in the name.
type MixCell struct {
	Name    string
	Solo    bool
	Members []Demand
}

// buildMix is the expgrid Tenants hook over explicit MixCells: it
// constructs one cell's shared backend and attaches the member demands'
// volumes, every tenant preconditioned and seeded from the cell seed.
func (s Spec) buildMix(cells []MixCell) func(c expgrid.Cell) (*sim.Engine, []workload.Tenant) {
	return func(c expgrid.Cell) (*sim.Engine, []workload.Tenant) {
		cell := cells[c.DeviceIndex]
		eng := sim.AcquireEngine() // released by expgrid after the cell drains
		rng := sim.NewRNG(c.Seed, c.Seed^0xf1ee)
		be := essd.NewBackend(eng, s.Backend, rng.Derive("backend"))
		tenants := make([]workload.Tenant, 0, len(cell.Members))
		for i, d := range cell.Members {
			vcfg := s.Volume
			vcfg.Name = d.Name
			vol := be.Attach(vcfg, rng)
			vol.Precondition(1)
			tenants = append(tenants, workload.Tenant{
				Name: d.Name,
				Dev:  vol,
				Open: &workload.OpenSpec{
					Pattern:    workload.Mixed,
					BlockSize:  d.BlockSize,
					WriteRatio: d.writeFrac(),
					RatePerSec: d.RatePerSec,
					Arrival:    d.Arrival,
					Count:      horizonOps(d, s.Horizon),
					Seed:       c.Seed ^ uint64(0x5eed+i*0x9e37),
				},
			})
		}
		return eng, tenants
	}
}

// TenantInfo is one tenant's post-run backend-coupling capture.
type TenantInfo struct {
	Name        string       `json:"name"`
	Throttled   bool         `json:"throttled"`
	ThrottledAt sim.Time     `json:"throttled_at"` // -1 when never engaged
	Stall       sim.Duration `json:"stall"`
	DebtAdded   int64        `json:"debt_added"`
	FabricUp    int64        `json:"fabric_up"`
}

// CellInfo is the InspectMix capture of one backend cell: the pooled debt
// plus per-tenant throttle state and attribution. JSON-round-trippable so
// cached cells survive persistence (see decodeCellInfo). Exported so
// callers driving MixSweep directly (the churn control plane) can type-
// assert each CellResult's Info.
type CellInfo struct {
	SharedDebt int64        `json:"shared_debt"`
	Tenants    []TenantInfo `json:"tenants"`
}

// inspectCell captures every tenant's throttle/debt state while the
// cell's volumes are still alive.
func inspectCell(tenants []workload.Tenant, _ expgrid.Cell) any {
	info := CellInfo{}
	for _, t := range tenants {
		ti := TenantInfo{Name: t.Name, ThrottledAt: -1}
		if vol, ok := t.Dev.(*essd.ESSD); ok {
			ti.Throttled = vol.Throttled()
			if ti.Throttled {
				ti.ThrottledAt = vol.ThrottledAt()
			}
			ti.Stall = vol.BudgetStall()
			use := vol.BackendUse()
			ti.DebtAdded = use.DebtAdded
			ti.FabricUp = use.FabricUp
			info.SharedDebt = vol.Backend().Debt()
		}
		info.Tenants = append(info.Tenants, ti)
	}
	return info
}

// decodeCellInfo rehydrates a persisted cellInfo (the expgrid DecodeInfo
// hook matching inspectCell).
func decodeCellInfo(raw []byte) (any, error) {
	var info CellInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return nil, err
	}
	return info, nil
}

// TenantReport is one placed tenant's measurement under one policy.
type TenantReport struct {
	Name    string
	Backend int // backend index the policy placed the tenant on

	// Demand echo.
	RatePerSec    float64
	BlockSize     int64
	WriteRatioPct int
	Arrival       workload.Arrival

	// Measurements over the tenant's own submission-to-last-completion
	// window.
	Ops           uint64
	Bytes         int64
	Elapsed       sim.Duration
	Lat           stats.Summary
	ThroughputBps float64

	// SLO verdicts against the spec targets.
	P99Violation  bool
	P999Violation bool

	// Inflation vs the tenant's solo control (same demand shape, alone on
	// a private backend); 0 when the control's tail is zero.
	P99Inflation  float64
	P999Inflation float64

	// Shared-backend coupling.
	Throttled     bool
	ThrottleOnset sim.Duration // -1 when the limiter never engaged
	BudgetStall   sim.Duration
	DebtAdded     int64
}

// BackendReport is one materialized backend's aggregate under one policy.
type BackendReport struct {
	Index   int
	Tenants []string

	OfferedBps  float64 // sum of member nominal offered rates
	WriteBps    float64 // sum of member nominal write rates
	Utilization float64 // OfferedBps / Spec.BackendBps

	AchievedBps float64 // completed bytes over the longest member window
	SharedDebt  int64   // pooled cleaner debt at end of run
	Throttled   int     // members whose flow limiter engaged
	WorstP99    sim.Duration
	WorstP999   sim.Duration

	Cached bool // served from the sweep cache
}

// PolicyReport is one placement policy's complete outcome.
type PolicyReport struct {
	Policy     string
	Assignment []int // backend index per demand, in catalog order

	BackendsUsed int
	Backends     []BackendReport
	Tenants      []TenantReport // catalog order

	// Fleet-wide aggregates.
	P99Violations      int
	P999Violations     int
	ThrottledTenants   int
	WorstP99Inflation  float64
	WorstP999Inflation float64
	// MeanUtilization averages offered/budget over the backends the
	// policy actually used.
	MeanUtilization float64
}

// SoloControl is one distinct demand shape's solo baseline: the tenant
// alone on a private backend built from the same templates.
type SoloControl struct {
	Signature string
	Lat       stats.Summary
	Cached    bool
}

// Report is the full study outcome: one PolicyReport per compared policy
// over the identical tenant catalog, plus the shared solo controls.
type Report struct {
	Tenants    int
	Backends   int // density knob: backends available to every policy
	BackendBps float64
	WriteBps   float64
	SLOP99     sim.Duration
	SLOP999    sim.Duration

	Policies []PolicyReport
	Solo     []SoloControl

	// Cells and CachedCells count the expgrid simulations behind the
	// report and how many were served from the sweep cache.
	Cells       int
	CachedCells int
}

// Run executes the fleet packing study: every policy places the identical
// demand catalog, each placement materializes as independent shared-
// backend simulations (one expgrid tenant-mix cell per distinct backend
// population — shared when two policies co-locate the same tenants —
// plus one solo-control cell per distinct demand shape), and all cells of
// all policies run in parallel on one expgrid worker pool. Results are
// deterministic and identical for any worker count; with Spec.Cache a
// warm re-run simulates zero new cells. Cancel ctx to stop early.
func Run(ctx context.Context, s Spec) (*Report, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cons := s.constraints()
	assignments := make([][]int, len(s.Policies))
	for i, p := range s.Policies {
		assignments[i] = p.Place(cons, s.Demands)
		if len(assignments[i]) != len(s.Demands) {
			return nil, fmt.Errorf("fleet: policy %s placed %d of %d demands",
				p.Name(), len(assignments[i]), len(s.Demands))
		}
		for _, b := range assignments[i] {
			if b < 0 || b >= s.Backends {
				return nil, fmt.Errorf("fleet: policy %s placed a demand on backend %d of %d",
					p.Name(), b, s.Backends)
			}
		}
	}
	defs, refs := s.cells(assignments)
	cells := make([]MixCell, len(defs))
	for i, def := range defs {
		members := make([]Demand, len(def.members))
		for j, di := range def.members {
			members[j] = s.Demands[di]
		}
		cells[i] = MixCell{Name: def.name, Solo: def.solo, Members: members}
	}
	results, err := expgrid.Runner{Workers: s.Workers}.Run(ctx, s.MixSweep(cells))
	if err != nil {
		return nil, err
	}
	return s.fold(defs, refs, assignments, results), nil
}

// MixSweep assembles the expgrid sweep that simulates the given cells
// under the (normalized) spec's templates: one TenantMix cell per
// MixCell, built by buildMix, inspected into CellInfo. The spec's full
// identity — budgets, horizon, templates, and the demand catalog — is
// folded into the sweep label, so two specs share cache entries (and
// cell seeds) exactly when their cells would build identical tenant
// mixes; the catalog hook's other inputs are invisible to the expgrid
// fingerprint, which only hashes Sweep fields, and membership lives in
// the cell device names. The Backend and Volume templates go in via
// their Signature methods, deterministic pointer-free renderings; the
// label seeds every cell, so its bytes must not drift. Callers
// synthesizing cells beyond the catalog (the churn control plane) must
// keep the (label, cell-name) → members mapping injective: a scaled
// member carries its scale in both its Name and the cell name.
func (s Spec) MixSweep(cells []MixCell) expgrid.Sweep {
	var cat strings.Builder
	for _, d := range s.Demands {
		fmt.Fprintf(&cat, "%s=%s;", d.Name, d.signature())
	}
	// The isolation axis goes in the sweep Variant, not the label: the
	// label (stripped of isolation) keeps the cell seeds — and hence every
	// tenant's arrival draws — identical across policies, so a fleet
	// isolation study compares pure scheduling effects, while each variant
	// caches separately. The variant's w0|r0 are the volumes' weight and
	// reservation, which the template leaves at zero.
	beLabel := s.Backend
	beLabel.Isolation = qos.Isolation{}
	label := fmt.Sprintf("%s|bud%g|hz%v|be%s|vol%s|%s",
		s.Label, s.BackendBps, s.Horizon, beLabel.Signature(), s.Volume.Signature(), cat.String())
	var variant string
	if s.Isolation.Enabled() {
		variant = "iso:" + s.Isolation.Signature() + "|w0|r0"
	}

	sw := expgrid.Sweep{
		Kind: expgrid.TenantMix,
		// One cell per backend (and per solo control): the device axis
		// names carry each cell's full membership.
		AggressorCounts: []int{0},
		RatesPerSec:     []float64{1},
		Tenants:         s.buildMix(cells),
		InspectMix:      inspectCell,
		Cache:           s.Cache,
		DecodeInfo:      decodeCellInfo,
		Seed:            s.Seed,
		Label:           label,
		Variant:         variant,
	}
	for _, cell := range cells {
		sw.Devices = append(sw.Devices, expgrid.NamedFactory{Name: cell.Name})
	}
	return sw
}

// fold assembles the report from the raw cell results.
func (s Spec) fold(defs []cellDef, refs [][]backendRef, assignments [][]int, results []expgrid.CellResult) *Report {
	rep := &Report{
		Tenants:    len(s.Demands),
		Backends:   s.Backends,
		BackendBps: s.BackendBps,
		WriteBps:   s.writeBps(),
		SLOP99:     sloP99,
		SLOP999:    s.SLOP999,
		Cells:      len(results),
	}

	// Solo controls first: the per-tenant inflation columns divide by them.
	solo := make(map[string]stats.Summary)
	for i, r := range results {
		if r.Cached {
			rep.CachedCells++
		}
		def := defs[i]
		if !def.solo {
			continue
		}
		sum := r.Mix[0].Open.Lat.Summarize()
		sig := s.Demands[def.members[0]].signature()
		solo[sig] = sum
		rep.Solo = append(rep.Solo, SoloControl{Signature: sig, Lat: sum, Cached: r.Cached})
	}

	for pi, pol := range s.Policies {
		pr := PolicyReport{
			Policy:     pol.Name(),
			Assignment: assignments[pi],
			Tenants:    make([]TenantReport, len(s.Demands)),
		}
		for _, ref := range refs[pi] {
			def := defs[ref.cell]
			r := results[ref.cell]
			info := r.Info.(CellInfo)
			br := BackendReport{
				Index:      ref.backend,
				SharedDebt: info.SharedDebt,
				Cached:     r.Cached,
			}
			var achievedBytes int64
			var longest sim.Duration
			for mi, di := range def.members {
				d := s.Demands[di]
				tr := r.Mix[mi]
				ti := info.Tenants[mi]
				t := TenantReport{
					Name:          d.Name,
					Backend:       ref.backend,
					RatePerSec:    d.RatePerSec,
					BlockSize:     d.BlockSize,
					WriteRatioPct: d.WriteRatioPct,
					Arrival:       d.Arrival,
					Ops:           tr.Open.Ops,
					Bytes:         tr.Open.Bytes,
					Elapsed:       tr.Open.Elapsed,
					Lat:           tr.Open.Lat.Summarize(),
					ThroughputBps: tr.Open.Throughput(),
					Throttled:     ti.Throttled,
					ThrottleOnset: -1,
					BudgetStall:   ti.Stall,
					DebtAdded:     ti.DebtAdded,
				}
				if ti.Throttled && ti.ThrottledAt >= 0 {
					t.ThrottleOnset = sim.Duration(ti.ThrottledAt)
				}
				t.P99Violation = t.Lat.P99 > sloP99
				t.P999Violation = s.SLOP999 > 0 && t.Lat.P999 > s.SLOP999
				if ctrl, ok := solo[d.signature()]; ok {
					if ctrl.P99 > 0 {
						t.P99Inflation = float64(t.Lat.P99) / float64(ctrl.P99)
					}
					if ctrl.P999 > 0 {
						t.P999Inflation = float64(t.Lat.P999) / float64(ctrl.P999)
					}
				}
				pr.Tenants[di] = t

				br.Tenants = append(br.Tenants, d.Name)
				br.OfferedBps += d.OfferedBps()
				br.WriteBps += d.WriteBps()
				achievedBytes += t.Bytes
				if t.Elapsed > longest {
					longest = t.Elapsed
				}
				if t.Throttled {
					br.Throttled++
				}
				if t.Lat.P99 > br.WorstP99 {
					br.WorstP99 = t.Lat.P99
				}
				if t.Lat.P999 > br.WorstP999 {
					br.WorstP999 = t.Lat.P999
				}
			}
			br.Utilization = br.OfferedBps / s.BackendBps
			if longest > 0 {
				br.AchievedBps = float64(achievedBytes) / longest.Seconds()
			}
			pr.Backends = append(pr.Backends, br)
		}
		pr.BackendsUsed = len(pr.Backends)
		var offered float64
		for _, br := range pr.Backends {
			offered += br.OfferedBps
		}
		if pr.BackendsUsed > 0 {
			pr.MeanUtilization = offered / (s.BackendBps * float64(pr.BackendsUsed))
		}
		for _, t := range pr.Tenants {
			if t.P99Violation {
				pr.P99Violations++
			}
			if t.P999Violation {
				pr.P999Violations++
			}
			if t.Throttled {
				pr.ThrottledTenants++
			}
			if t.P99Inflation > pr.WorstP99Inflation {
				pr.WorstP99Inflation = t.P99Inflation
			}
			if t.P999Inflation > pr.WorstP999Inflation {
				pr.WorstP999Inflation = t.P999Inflation
			}
		}
		rep.Policies = append(rep.Policies, pr)
	}
	return rep
}
