package churn

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"essdsim/internal/expgrid"
	"essdsim/internal/fleet"
	"essdsim/internal/sim"
)

// EventKind enumerates the volume lifecycle events the control plane
// applies between epochs, plus the Migrate records rebalancers emit.
type EventKind int

const (
	// Create provisions a new volume cloned from a catalog demand shape
	// and places it online via the placement policy.
	Create EventKind = iota
	// Delete removes a live volume from the fleet; its backend capacity
	// is reclaimed from the next epoch on, whose backends are built
	// afresh from the live volumes.
	Delete
	// Expand doubles a live volume's demand scale (at most 4×).
	Expand
	// Shrink halves a live volume's demand scale (at least 0.25×).
	Shrink
	// Snapshot models a snapshot/clone as a one-epoch write burst: the
	// volume's offered rate is multiplied by 3 for the next epoch only.
	Snapshot
	// Migrate is emitted by rebalancing policies (never drawn from the
	// churn process): the volume moves to another backend at a cost of
	// one volume copy.
	Migrate
)

// String names the kind as it appears in reports and the events CSV.
func (k EventKind) String() string {
	switch k {
	case Create:
		return "create"
	case Delete:
		return "delete"
	case Expand:
		return "expand"
	case Shrink:
		return "shrink"
	case Snapshot:
		return "snapshot"
	case Migrate:
		return "migrate"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scripted lifecycle event. Epoch is the control epoch the
// event is applied at the start of (0-based). Tenant names the target:
// for Create, a catalog demand name (the new volume clones that shape);
// for every other kind, a live volume's instance name.
type Event struct {
	Epoch  int
	Kind   EventKind
	Tenant string
}

// EventRecord is one applied event in the report's audit trail,
// including the migrations the rebalancer decided.
type EventRecord struct {
	Epoch  int
	Kind   EventKind
	Tenant string // volume instance name
	Demand string // catalog demand the volume derives from
	From   int    // backend before the event (-1 for Create)
	To     int    // backend after the event (-1 for Delete)
	Scale  float64
	// MoveBytes is the migration cost (one volume copy) for Migrate
	// records, 0 otherwise.
	MoveBytes int64
}

// Spec declares a churn study over a fleet spec. The embedded
// fleet.Spec supplies the demand catalog (the shapes creates clone),
// the backends' isolation policy, packing budgets, SLO targets, the
// epoch length (Fleet.Horizon), seed, workers, cache, and label.
// Fleet.Policies is not compared policy-by-policy here: the first fleet
// policy makes the online decision for every created volume — it
// re-plans the live fleet through its ordinary Place call and the
// control plane adopts only the newcomer's slot, so existing volumes move
// only via the Rebalancer.
type Spec struct {
	Fleet fleet.Spec

	// Epochs is the number of control epochs (default 6). Each epoch
	// simulates one Fleet.Horizon of tenant I/O.
	Epochs int

	// ChurnRate is the mean number of lifecycle events drawn per epoch
	// from the seeded churn process (Poisson-distributed; 0 = a static
	// fleet, negative is invalid). Ignored when Script is non-empty.
	ChurnRate float64

	// Rebalancer plans migrations between epochs (default NeverMove).
	Rebalancer Rebalancer

	// MigrationBudget caps the rebalancer's moves per epoch (default 2).
	MigrationBudget int

	// Script, when non-empty, replaces the random churn process with an
	// explicit timeline (events applied in slice order within an epoch).
	Script []Event
}

// Lifecycle bounds: a snapshot multiplies a volume's offered rate by
// burstFactor for one epoch, and expand/shrink keep a volume's demand
// scale within [minScale, maxScale].
const (
	burstFactor = 3
	minScale    = 0.25
	maxScale    = 4
)

// placement is the online policy every create goes through.
func (s Spec) placement() fleet.PlacementPolicy { return s.Fleet.Policies[0] }

func (s Spec) withDefaults() Spec {
	s.Fleet = s.Fleet.Normalize()
	if s.Epochs <= 0 {
		s.Epochs = 6
	}
	if s.Rebalancer == nil {
		s.Rebalancer = NeverMove{}
	}
	if s.MigrationBudget <= 0 {
		s.MigrationBudget = 2
	}
	return s
}

// Validate reports a descriptive error for a nonsensical spec. The
// embedded fleet spec is validated too.
func (s Spec) Validate() error {
	if err := s.Fleet.Validate(); err != nil {
		return err
	}
	if s.ChurnRate < 0 {
		return fmt.Errorf("churn: negative churn rate %g", s.ChurnRate)
	}
	for _, d := range s.Fleet.Demands {
		if strings.Contains(d.Name, "~") {
			return fmt.Errorf("churn: demand name %q contains the instance-token character '~'", d.Name)
		}
	}
	byName := make(map[string]bool, len(s.Fleet.Demands))
	for _, d := range s.Fleet.Demands {
		byName[d.Name] = true
	}
	for i, ev := range s.Script {
		if ev.Epoch < 0 || ev.Epoch >= s.Epochs {
			return fmt.Errorf("churn: script event %d targets epoch %d of %d", i, ev.Epoch, s.Epochs)
		}
		if ev.Kind == Migrate {
			return fmt.Errorf("churn: script event %d: migrations are decided by the rebalancer, not scripted", i)
		}
		if ev.Kind == Create && !byName[ev.Tenant] {
			return fmt.Errorf("churn: script event %d creates from unknown catalog demand %q", i, ev.Tenant)
		}
	}
	return nil
}

// volume is one live volume in the control plane's state.
type volume struct {
	name     string // instance name (catalog name, "~i<n>" for clones)
	base     int    // catalog demand index
	scale    float64
	burst    bool // snapshot burst active for the coming epoch
	backend  int
	instance int // 1 for the initial population, 2+ for creates
}

// effScale is the scale the coming epoch simulates at.
func (v *volume) effScale() float64 {
	if v.burst {
		return v.scale * burstFactor
	}
	return v.scale
}

// token renders the volume's member token for cell naming and volume
// naming: the catalog name, "~i<n>" for clone instances, and "~x<s>"
// whenever the effective scale differs from 1 — so a cell name plus the
// catalog (already folded into the sweep label) uniquely determines
// every member's demand, which is what keeps cell seeds and cache
// entries sound.
func (v *volume) token() string {
	t := v.name
	if s := v.effScale(); s != 1 {
		t += fmt.Sprintf("~x%g", s)
	}
	return t
}

// effDemand is the concrete demand the coming epoch simulates: the
// catalog shape with the rate scaled and the instance token as name.
func (s Spec) effDemand(v *volume) fleet.Demand {
	d := s.Fleet.Demands[v.base]
	d.Name = v.token()
	d.RatePerSec *= v.effScale()
	return d
}

// state is the control plane's evolving view.
type state struct {
	spec Spec
	cons fleet.Constraints
	live []*volume
	next map[string]int // per-base clone instance counter
}

// find returns the live index of the named volume, or -1.
func (st *state) find(name string) int {
	for i, v := range st.live {
		if v.name == name {
			return i
		}
	}
	return -1
}

// nominalLoad sums each backend's offered bytes/s at current scales
// (bursts included): the provider-visible numbers every control
// decision — placement and rebalancing alike — is made from.
func (st *state) nominalLoad() []float64 {
	load := make([]float64, st.spec.Fleet.Backends)
	for _, v := range st.live {
		load[v.backend] += st.spec.effDemand(v).OfferedBps()
	}
	return load
}

// place runs the placement policy over the live fleet plus the
// newcomer and adopts the newcomer's slot.
func (st *state) place(newcomer fleet.Demand) int {
	demands := make([]fleet.Demand, 0, len(st.live)+1)
	for _, v := range st.live {
		demands = append(demands, st.spec.effDemand(v))
	}
	demands = append(demands, newcomer)
	assign := st.spec.placement().Place(st.cons, demands)
	b := assign[len(assign)-1]
	if b < 0 || b >= st.spec.Fleet.Backends {
		b = 0
	}
	return b
}

// moveBytes is the migration-cost model: moving a volume copies the
// volume template's full provisioned capacity across the fabric once.
func (s Spec) moveBytes() int64 { return s.Fleet.Volume.Capacity }

// poisson draws a Poisson-distributed count with the given mean
// (Knuth's product-of-uniforms method; the mean is a per-epoch event
// rate, so it is small and the loop short).
func poisson(rng *sim.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	n, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return n
		}
		n++
	}
}

// epochEvents returns the lifecycle events to apply at the start of the
// given epoch: the scripted ones, or draws from the seeded process.
// Event draws derive from the fleet seed and the epoch index only, so
// the timeline is independent of worker count and of the simulator.
func (st *state) epochEvents(epoch int, rng *sim.RNG) []Event {
	if len(st.spec.Script) > 0 {
		var evs []Event
		for _, ev := range st.spec.Script {
			if ev.Epoch == epoch {
				evs = append(evs, ev)
			}
		}
		return evs
	}
	er := rng.Derive(fmt.Sprintf("epoch%d", epoch))
	n := poisson(er, st.spec.ChurnRate)
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		var kind EventKind
		switch r := er.Float64(); {
		case r < 0.30:
			kind = Create
		case r < 0.50:
			kind = Delete
		case r < 0.70:
			kind = Expand
		case r < 0.85:
			kind = Shrink
		default:
			kind = Snapshot
		}
		var target string
		if kind == Create {
			target = st.spec.Fleet.Demands[er.IntN(len(st.spec.Fleet.Demands))].Name
		} else {
			if len(st.live) == 0 {
				continue
			}
			target = st.live[er.IntN(len(st.live))].name
		}
		evs = append(evs, Event{Epoch: epoch, Kind: kind, Tenant: target})
	}
	return evs
}

// apply mutates the live set for one event and returns its record, or
// false when the event is a no-op (unknown target, delete of the last
// volume, scale already at its bound).
func (st *state) apply(ev Event) (EventRecord, bool) {
	s := st.spec
	switch ev.Kind {
	case Create:
		base := -1
		for i, d := range s.Fleet.Demands {
			if d.Name == ev.Tenant {
				base = i
				break
			}
		}
		if base < 0 {
			return EventRecord{}, false
		}
		st.next[ev.Tenant]++
		v := &volume{
			name:     ev.Tenant,
			base:     base,
			scale:    1,
			instance: st.next[ev.Tenant],
		}
		if v.instance > 1 {
			v.name = fmt.Sprintf("%s~i%d", ev.Tenant, v.instance)
		}
		v.backend = st.place(s.effDemand(v))
		st.live = append(st.live, v)
		return EventRecord{Epoch: ev.Epoch, Kind: Create, Tenant: v.name,
			Demand: ev.Tenant, From: -1, To: v.backend, Scale: v.scale}, true
	case Delete:
		i := st.find(ev.Tenant)
		if i < 0 || len(st.live) == 1 {
			return EventRecord{}, false
		}
		v := st.live[i]
		st.live = append(st.live[:i], st.live[i+1:]...)
		return EventRecord{Epoch: ev.Epoch, Kind: Delete, Tenant: v.name,
			Demand: s.Fleet.Demands[v.base].Name, From: v.backend, To: -1, Scale: v.scale}, true
	case Expand, Shrink:
		i := st.find(ev.Tenant)
		if i < 0 {
			return EventRecord{}, false
		}
		v := st.live[i]
		scale := v.scale * 2
		if ev.Kind == Shrink {
			scale = v.scale / 2
		}
		if scale > maxScale || scale < minScale {
			return EventRecord{}, false
		}
		v.scale = scale
		return EventRecord{Epoch: ev.Epoch, Kind: ev.Kind, Tenant: v.name,
			Demand: s.Fleet.Demands[v.base].Name, From: v.backend, To: v.backend, Scale: v.scale}, true
	case Snapshot:
		i := st.find(ev.Tenant)
		if i < 0 {
			return EventRecord{}, false
		}
		v := st.live[i]
		v.burst = true
		return EventRecord{Epoch: ev.Epoch, Kind: Snapshot, Tenant: v.name,
			Demand: s.Fleet.Demands[v.base].Name, From: v.backend, To: v.backend,
			Scale: v.effScale()}, true
	default:
		return EventRecord{}, false
	}
}

// rebalance runs the rebalancing policy over the nominal view and
// applies its moves under the migration budget, returning their
// records.
func (st *state) rebalance(epoch int) []EventRecord {
	s := st.spec
	view := View{
		Backends:   s.Fleet.Backends,
		BackendBps: s.Fleet.BackendBps,
		Load:       st.nominalLoad(),
		Budget:     s.MigrationBudget,
	}
	for _, v := range st.live {
		view.Tenants = append(view.Tenants, TenantView{
			Name:       v.name,
			Backend:    v.backend,
			OfferedBps: s.effDemand(v).OfferedBps(),
		})
	}
	moves := s.Rebalancer.Plan(view)
	if len(moves) > s.MigrationBudget {
		moves = moves[:s.MigrationBudget]
	}
	var recs []EventRecord
	for _, m := range moves {
		if m.Tenant < 0 || m.Tenant >= len(st.live) || m.To < 0 || m.To >= s.Fleet.Backends {
			continue
		}
		v := st.live[m.Tenant]
		if v.backend == m.To {
			continue
		}
		from := v.backend
		v.backend = m.To
		recs = append(recs, EventRecord{Epoch: epoch, Kind: Migrate, Tenant: v.name,
			Demand: s.Fleet.Demands[v.base].Name, From: from, To: m.To,
			Scale: v.scale, MoveBytes: s.moveBytes()})
	}
	return recs
}

// beRef ties one epoch's materialized backend to its simulation cell.
type beRef struct {
	backend int
	cell    int   // index into the deduplicated cell slice
	members []int // live indices snapshot, in member order (for names only)
}

// epochPlan is one epoch's placement snapshot: the cells to simulate
// and the per-member identity needed to fold results back.
type epochPlan struct {
	refs    []beRef
	events  []EventRecord
	tenants int
	offered float64
}

// snapshot appends the epoch's backend populations to the cell set
// (deduplicating by cell name — a backend unchanged across epochs, or
// identical to one from another epoch, simulates once) and returns the
// epoch's refs. Members order by (catalog index, instance) so a
// zero-churn epoch names its cells exactly as fleet.Run would.
func (st *state) snapshot(cells *[]fleet.MixCell, index map[string]int) []beRef {
	s := st.spec
	var refs []beRef
	for b := 0; b < s.Fleet.Backends; b++ {
		var members []int
		for i, v := range st.live {
			if v.backend == b {
				members = append(members, i)
			}
		}
		if len(members) == 0 {
			continue
		}
		sort.SliceStable(members, func(x, y int) bool {
			vx, vy := st.live[members[x]], st.live[members[y]]
			if vx.base != vy.base {
				return vx.base < vy.base
			}
			return vx.instance < vy.instance
		})
		tokens := make([]string, len(members))
		demands := make([]fleet.Demand, len(members))
		for i, li := range members {
			tokens[i] = st.live[li].token()
			demands[i] = s.effDemand(st.live[li])
		}
		name := "mix[" + strings.Join(tokens, "+") + "]"
		ci, ok := index[name]
		if !ok {
			ci = len(*cells)
			index[name] = ci
			*cells = append(*cells, fleet.MixCell{Name: name, Members: demands})
		}
		refs = append(refs, beRef{backend: b, cell: ci, members: members})
	}
	return refs
}

// Run executes the churn study: the placement policy packs the initial
// catalog, then each epoch applies lifecycle events and rebalancing
// moves on the nominal (provider-visible) numbers, and every epoch's
// backend populations are simulated through one parallel expgrid sweep
// — cells deduplicated by population across epochs and shared, via the
// fleet label scheme, with static fleet studies on the same cache. The
// result is deterministic and identical for any worker count; with
// Fleet.Cache a warm re-run simulates zero new cells. Cancel ctx to
// stop early.
func Run(ctx context.Context, s Spec) (*Report, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st := &state{spec: s, cons: s.Fleet.PackingConstraints(), next: map[string]int{}}

	// Initial population: the placement policy packs the catalog exactly
	// as a static fleet study would.
	assign := s.placement().Place(st.cons, s.Fleet.Demands)
	if len(assign) != len(s.Fleet.Demands) {
		return nil, fmt.Errorf("churn: policy %s placed %d of %d demands",
			s.placement().Name(), len(assign), len(s.Fleet.Demands))
	}
	for i, d := range s.Fleet.Demands {
		b := assign[i]
		if b < 0 || b >= s.Fleet.Backends {
			return nil, fmt.Errorf("churn: policy %s placed a demand on backend %d of %d",
				s.placement().Name(), b, s.Fleet.Backends)
		}
		st.next[d.Name] = 1
		st.live = append(st.live, &volume{name: d.Name, base: i, scale: 1, backend: b, instance: 1})
	}

	// Plan every epoch up front: the control plane acts on nominal
	// demand numbers only, so the full timeline is known before any
	// simulation and all cells run in one maximally-parallel sweep.
	rng := sim.NewRNG(s.Fleet.Seed, 0xc0ffee).Derive("churn:" + s.Fleet.Label)
	var cells []fleet.MixCell
	index := map[string]int{}
	plans := make([]epochPlan, s.Epochs)
	for e := 0; e < s.Epochs; e++ {
		var recs []EventRecord
		for _, ev := range st.epochEvents(e, rng) {
			if rec, ok := st.apply(ev); ok {
				recs = append(recs, rec)
			}
		}
		recs = append(recs, st.rebalance(e)...)
		plans[e] = epochPlan{
			refs:    st.snapshot(&cells, index),
			events:  recs,
			tenants: len(st.live),
		}
		for _, l := range st.nominalLoad() {
			plans[e].offered += l
		}
		// Snapshot bursts last one epoch.
		for _, v := range st.live {
			v.burst = false
		}
	}

	results, err := expgrid.Runner{Workers: s.Fleet.Workers}.Run(ctx, s.Fleet.MixSweep(cells))
	if err != nil {
		return nil, err
	}
	return s.fold(plans, cells, results), nil
}
