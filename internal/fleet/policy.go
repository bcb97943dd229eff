package fleet

import (
	"fmt"
	"math"
	"sort"

	"essdsim/internal/sim"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
)

// Demand describes one tenant volume the fleet must place: its identity
// and the open-loop load it will offer once attached. A demand is the
// provider-visible summary of a tenant — the placement policies see only
// these numbers, never the simulated future.
type Demand struct {
	// Name labels the tenant across the placement, the simulation, and
	// every report row. Names must be unique within a Spec and must not
	// contain the characters used by the cell naming ("[", "]", "+", "|").
	Name string

	// RatePerSec is the offered request rate.
	RatePerSec float64
	// BlockSize is the request payload in bytes.
	BlockSize int64
	// WriteRatioPct is the percentage of requests that are writes
	// (0–100); -1 means a pure-read tenant.
	WriteRatioPct int
	// Arrival selects the tenant's arrival process.
	Arrival workload.Arrival
	// Ops bounds the tenant's request count; 0 derives it from the spec
	// horizon (RatePerSec × Spec.Horizon).
	Ops uint64
}

// OfferedBps returns the demand's nominal offered load in bytes/s.
func (d Demand) OfferedBps() float64 { return d.RatePerSec * float64(d.BlockSize) }

// writeFrac returns the demand's write fraction in [0, 1].
func (d Demand) writeFrac() float64 {
	if d.WriteRatioPct < 0 {
		return 0
	}
	return float64(d.WriteRatioPct) / 100
}

// WriteBps returns the demand's nominal offered write load in bytes/s.
func (d Demand) WriteBps() float64 { return d.OfferedBps() * d.writeFrac() }

// signature renders the demand's load shape (everything except the name)
// for solo-control dedup and cache-key labels: two demands with equal
// signatures are interchangeable workloads.
func (d Demand) signature() string {
	return fmt.Sprintf("r%g/bs%d/wr%d/%s/n%d",
		d.RatePerSec, d.BlockSize, d.WriteRatioPct, d.Arrival, d.Ops)
}

// Validate reports a descriptive error for a nonsensical demand.
func (d Demand) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("fleet: demand has no name")
	case !(d.RatePerSec > 0) || math.IsInf(d.RatePerSec, 1):
		return fmt.Errorf("fleet: demand %s rate %v not finite and positive", d.Name, d.RatePerSec)
	case d.BlockSize <= 0:
		return fmt.Errorf("fleet: demand %s block size %d not positive", d.Name, d.BlockSize)
	case d.WriteRatioPct < -1 || d.WriteRatioPct > 100:
		return fmt.Errorf("fleet: demand %s write ratio %d%% out of [-1, 100]", d.Name, d.WriteRatioPct)
	}
	return nil
}

// SyntheticDemands builds a deterministic tenant catalog of total demands,
// aggressors of which are bursty write floods (256 KiB, all-write at
// 1600 req/s — the noisy-neighbor suite's aggressor shape) spread evenly
// through a population of steady mixed victims (64 KiB, half-write at
// 300 req/s). It is the default catalog of the fleet CLI and examples.
func SyntheticDemands(total, aggressors int) []Demand {
	if aggressors > total {
		aggressors = total
	}
	demands := make([]Demand, 0, total)
	next, placed := 0, 0
	for i := 0; i < total; i++ {
		if placed < aggressors && i == next {
			demands = append(demands, Demand{
				Name:          fmt.Sprintf("aggr%02d", placed),
				RatePerSec:    1600,
				BlockSize:     256 << 10,
				WriteRatioPct: 100,
				Arrival:       workload.Bursty,
			})
			placed++
			if aggressors > 0 {
				next = (placed * total) / aggressors
			}
			continue
		}
		demands = append(demands, Demand{
			Name:          fmt.Sprintf("ten%02d", i),
			RatePerSec:    300,
			BlockSize:     64 << 10,
			WriteRatioPct: 50,
			Arrival:       workload.Uniform,
		})
	}
	return demands
}

// DemandFromTrace converts a real trace into a placeable tenant demand:
// the records are fitted onto the fleet's volume geometry (trace.Fit) and
// profiled (trace.ProfileOf), and the profile's mean rate, request-count
// write mix, and mean size (rounded up to whole blocks) become the
// demand's open-loop shape under a Poisson arrival process. Ops is left 0
// so the spec horizon bounds the tenant like any synthetic demand. It
// errors on traces with no defined rate (empty, single-record, or
// instantaneous bursts).
func DemandFromTrace(name string, recs []trace.Record, capacity, blockSize int64) (Demand, error) {
	p := trace.ProfileOf(trace.Fit(recs, capacity, blockSize))
	if p.RatePerSec <= 0 {
		return Demand{}, fmt.Errorf("fleet: trace for %s has no defined rate (%d records over %v)",
			name, p.Ops, p.Span)
	}
	bs := (p.MeanSize + blockSize - 1) / blockSize * blockSize
	if bs <= 0 {
		bs = blockSize
	}
	return Demand{
		Name:          name,
		RatePerSec:    p.RatePerSec,
		BlockSize:     bs,
		WriteRatioPct: p.WriteRatioPct,
		Arrival:       workload.Poisson,
	}, nil
}

// Constraints carries the per-backend packing budgets a placement policy
// places against. EffectiveBps caps each demand's long-run offered rate at
// the volume's throughput budget; 0 leaves demands uncapped.
type Constraints struct {
	// Backends is the number of backends available (indices 0..Backends-1).
	Backends int
	// BackendBps is the nominal offered bytes/s budget of one backend.
	BackendBps float64
	// WriteBps is the write-absorption budget of one backend: the write
	// bytes/s its cleaner and spare capacity can take before co-located
	// tenants start throttling each other.
	WriteBps float64
	// EffectiveBps caps a single volume's sustainable bytes/s.
	EffectiveBps float64
}

// effOffered returns the demand's effective offered bytes/s under the
// per-volume sustainability cap.
func (c Constraints) effOffered(d Demand) float64 {
	bps := d.OfferedBps()
	if c.EffectiveBps > 0 && bps > c.EffectiveBps {
		bps = c.EffectiveBps
	}
	return bps
}

// effWrite returns the demand's effective offered write bytes/s.
func (c Constraints) effWrite(d Demand) float64 { return c.effOffered(d) * d.writeFrac() }

// PlacementPolicy assigns tenant demands to backends. Place returns one
// backend index in [0, c.Backends) per demand, in demand order. Policies
// are best-effort: when no backend can fit a demand within budget they
// still place it (on the least-loaded candidate) rather than failing —
// the resulting over-subscription shows up in the report's utilization and
// violation columns, which is the point of the study. Implementations
// must be deterministic pure functions of their inputs.
type PlacementPolicy interface {
	Name() string
	Place(c Constraints, demands []Demand) []int
}

// DefaultPolicies returns the four built-in policies in fixed order:
// first-fit, spread, best-fit, interference-aware.
func DefaultPolicies() []PlacementPolicy {
	return []PlacementPolicy{FirstFit{}, Spread{}, BestFit{}, InterferenceAware{}}
}

// PolicyByName returns the built-in policy with the given Name.
func PolicyByName(name string) (PlacementPolicy, error) {
	for _, p := range DefaultPolicies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (want first-fit, spread, best-fit, or interference)", name)
}

// FirstFit packs by nominal rate: each demand lands on the lowest-index
// backend whose residual nominal budget still fits it, opening backends
// left to right. This is the densest of the built-in policies — it uses
// the fewest backends and, by the same token, concentrates load (and
// cross-tenant interference) on the early ones.
type FirstFit struct{}

// Name implements PlacementPolicy.
func (FirstFit) Name() string { return "first-fit" }

// Place implements PlacementPolicy.
func (FirstFit) Place(c Constraints, demands []Demand) []int {
	used := make([]float64, c.Backends)
	out := make([]int, len(demands))
	for i, d := range demands {
		bps := d.OfferedBps()
		placed := -1
		for b := 0; b < c.Backends; b++ {
			if used[b]+bps <= c.BackendBps {
				placed = b
				break
			}
		}
		if placed < 0 {
			placed = minLoadIndex(used)
		}
		used[placed] += bps
		out[i] = placed
	}
	return out
}

// Spread round-robins demands across every available backend — the widest
// placement at a given backend count. It ignores budgets entirely: density
// is the caller's choice via Constraints.Backends.
type Spread struct{}

// Name implements PlacementPolicy.
func (Spread) Name() string { return "spread" }

// Place implements PlacementPolicy.
func (Spread) Place(c Constraints, demands []Demand) []int {
	out := make([]int, len(demands))
	for i := range demands {
		out[i] = i % c.Backends
	}
	return out
}

// BestFit packs by residual write-absorption ("credit") budget: each
// demand lands on the backend whose residual write budget after placement
// is smallest but still non-negative (classic best-fit, on the effective
// write load), provided the nominal byte budget also fits. It packs write
// churn tightly — fewer backends carry writes, at the cost of co-locating
// them.
type BestFit struct{}

// Name implements PlacementPolicy.
func (BestFit) Name() string { return "best-fit" }

// Place implements PlacementPolicy.
func (BestFit) Place(c Constraints, demands []Demand) []int {
	usedW := make([]float64, c.Backends)
	usedB := make([]float64, c.Backends)
	out := make([]int, len(demands))
	for i, d := range demands {
		w, bps := c.effWrite(d), d.OfferedBps()
		placed := -1
		for b := 0; b < c.Backends; b++ {
			if usedW[b]+w > c.WriteBps || usedB[b]+bps > c.BackendBps {
				continue
			}
			if placed < 0 || usedW[b] > usedW[placed] {
				placed = b // tightest residual write budget that still fits
			}
		}
		if placed < 0 {
			placed = minLoadIndex(usedW)
		}
		usedW[placed] += w
		usedB[placed] += bps
		out[i] = placed
	}
	return out
}

// heavyWriterPct is the write-ratio threshold above which the
// interference-aware policy treats a tenant as an aggressor whose
// co-location with other aggressors must be avoided.
const heavyWriterPct = 70

// InterferenceAware balances effective write load across backends and
// penalizes co-locating write-heavy tenants (write ratio ≥ 70%) with each
// other: aggressor churn drains the shared cleaner pool, so stacking two
// aggressors advances every co-tenant's throttle onset (the Obs#2
// coupling the noisy-neighbor suite measures). Demands are considered in
// descending effective-write order (greedy multiprocessor scheduling) and
// each lands on the backend minimizing projected write load plus the
// aggressor-affinity penalty, among backends whose nominal byte budget
// still fits. Effective loads are capped at the volume's throughput
// budget (Constraints.EffectiveBps), so an aggressor offering more than
// its volume can carry counts only for what it can carry.
type InterferenceAware struct{}

// Name implements PlacementPolicy.
func (InterferenceAware) Name() string { return "interference" }

// Place implements PlacementPolicy.
func (InterferenceAware) Place(c Constraints, demands []Demand) []int {
	order := make([]int, len(demands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return c.effWrite(demands[order[a]]) > c.effWrite(demands[order[b]])
	})
	usedW := make([]float64, c.Backends)
	usedB := make([]float64, c.Backends)
	heavy := make([]int, c.Backends)
	out := make([]int, len(demands))
	for _, i := range order {
		d := demands[i]
		w, bps := c.effWrite(d), d.OfferedBps()
		isHeavy := d.WriteRatioPct >= heavyWriterPct
		best, bestScore := -1, 0.0
		for b := 0; b < c.Backends; b++ {
			score := usedW[b] + w
			if isHeavy {
				score += w * float64(heavy[b])
			}
			fits := usedB[b]+bps <= c.BackendBps
			if best >= 0 {
				bestFits := usedB[best]+bps <= c.BackendBps
				if fits == bestFits && score >= bestScore {
					continue
				}
				if !fits && bestFits {
					continue
				}
			}
			best, bestScore = b, score
		}
		usedW[best] += w
		usedB[best] += bps
		if isHeavy {
			heavy[best]++
		}
		out[i] = best
	}
	return out
}

// minLoadIndex returns the index of the least-loaded backend — the
// best-effort overflow target every budgeted policy falls back to.
func minLoadIndex(used []float64) int {
	min := 0
	for b := 1; b < len(used); b++ {
		if used[b] < used[min] {
			min = b
		}
	}
	return min
}

// horizonOps derives a demand's request count from the spec horizon.
func horizonOps(d Demand, horizon sim.Duration) uint64 {
	if d.Ops > 0 {
		return d.Ops
	}
	n := uint64(d.RatePerSec * horizon.Seconds())
	if n == 0 {
		n = 1
	}
	return n
}
