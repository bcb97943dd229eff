package fleet

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// ScreenSpec configures the two-fidelity screening study: thousands of
// candidate placements are scored with a closed-form pressure model (no
// simulation), and only the Pareto frontier — the placements where
// fewer backends cannot be had without more predicted violation pressure —
// is materialized as full shared-backend simulations. The screen trades
// exactness for volume: it explores orders of magnitude more placements
// than simulation alone could at the same wall-clock cost, and the final
// frontier numbers are still real simulated measurements.
type ScreenSpec struct {
	Spec

	// Candidates is the analytic budget: how many distinct placements to
	// score (default 1024). The built-in policies at every packing density
	// seed the pool; seeded single-move perturbations of those bases fill
	// the rest.
	Candidates int
}

// maxSims caps how many frontier placements Screen simulates.
const maxSims = 8

func (ss ScreenSpec) withDefaults() ScreenSpec {
	ss.Spec = ss.Spec.withDefaults()
	if ss.Candidates <= 0 {
		ss.Candidates = 1024
	}
	return ss
}

// Candidate is one analytically scored placement.
type Candidate struct {
	// Origin records provenance: "first-fit@b2" for a policy base at
	// density 2, "perturb#17" for the 17th accepted perturbation.
	Origin string
	// Assignment is the backend index per demand, in catalog order.
	Assignment []int
	// BackendsUsed counts non-empty backends (the density objective).
	BackendsUsed int
	// Score is the predicted violation pressure (the quality objective;
	// lower is better). See screenModel.score for its composition.
	Score float64
}

// ScreenReport is the outcome of a two-fidelity screening run.
type ScreenReport struct {
	Generated  int         // placements generated, duplicates included
	Candidates int         // distinct placements scored
	Frontier   []Candidate // Pareto frontier by (backends used, score)
	// Simulated holds the full simulations of the frontier (at most
	// maxSims), one fixed-assignment "policy" per frontier candidate, in
	// frontier order.
	Simulated *Report
}

// screenModel holds the per-spec constants of the analytic score: the
// packing budgets and the isolation policy's debt coupling.
type screenModel struct {
	Constraints

	// coupling is the analytic fraction of a neighbour's excess churn that
	// can surface in a co-tenant's observed debt under the template's
	// isolation policy (1 under fifo) — qos.Isolation.DebtCouplingFactor.
	// It discounts the aggressor-pair penalty so the screen predicts what
	// the isolated simulation actually delivers, no more.
	coupling float64
}

// newScreenModel derives the model from the (normalized) spec.
func (s Spec) newScreenModel() screenModel {
	return screenModel{
		Constraints: s.constraints(),
		coupling:    s.Isolation.DebtCouplingFactor(s.Backend.Cluster.CleanerRate),
	}
}

// score predicts a placement's violation pressure: per backend, the
// fractional overload of the nominal byte budget and the write-absorption
// budget, plus a superlinear penalty for co-locating heavy writers (each
// pair of aggressors on one backend drains the shared cleaner pool into
// both). Lower is better; 0 means every backend fits every budget with no
// aggressor pairs.
func (m screenModel) score(demands []Demand, assign []int, backends int) (float64, int) {
	offered := make([]float64, backends)
	writes := make([]float64, backends)
	heavy := make([]int, backends)
	used := 0
	for di, b := range assign {
		d := demands[di]
		if offered[b] == 0 && writes[b] == 0 && heavy[b] == 0 {
			used++
		}
		offered[b] += m.effOffered(d)
		writes[b] += m.effWrite(d)
		if d.WriteRatioPct >= heavyWriterPct {
			heavy[b]++
		}
	}
	var score float64
	for b := 0; b < backends; b++ {
		if over := offered[b]/m.BackendBps - 1; over > 0 {
			score += over
		}
		if over := writes[b]/m.WriteBps - 1; over > 0 {
			score += over
		}
		// h·(h−1)/2 aggressor pairs: stacking write floods is superlinearly
		// bad (the Obs#2 coupling the neighbor suite measures). The penalty
		// scales with the isolation policy's debt coupling — shaped
		// admission bounds how much of a neighbour's churn a co-tenant can
		// observe, so an isolated backend tolerates denser packing before
		// the screen predicts violations.
		score += m.coupling * 0.5 * float64(heavy[b]*(heavy[b]-1)/2)
	}
	return score, used
}

// canonicalKey renders a placement up to backend relabeling: the sorted
// multiset of backend populations. Two assignments with the same key build
// physically identical cells, so only one needs scoring (or simulating).
func canonicalKey(demands []Demand, assign []int, backends int) string {
	groups := make([][]string, backends)
	for di, b := range assign {
		groups[b] = append(groups[b], demands[di].Name)
	}
	parts := make([]string, 0, backends)
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sort.Strings(g)
		parts = append(parts, strings.Join(g, "+"))
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// fixedPolicy replays a screened assignment through the simulation path as
// a PlacementPolicy, so frontier candidates reuse the whole fleet.Run
// machinery (cell dedup, solo controls, caching) unchanged.
type fixedPolicy struct {
	name   string
	assign []int
}

// Name implements PlacementPolicy.
func (p fixedPolicy) Name() string { return p.name }

// Place implements PlacementPolicy.
func (p fixedPolicy) Place(Constraints, []Demand) []int {
	return append([]int(nil), p.assign...)
}

// splitmix64 advances the screen's perturbation stream; it matches the
// finalizer used by the expgrid seed derivations.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Screen runs the two-fidelity study: policy bases at every packing
// density plus seeded perturbations are scored analytically, the Pareto
// frontier on (backends used, predicted violation score) is extracted, and
// at most maxSims frontier placements are materialized as full
// simulations. Deterministic for a fixed spec and seed.
func Screen(ctx context.Context, ss ScreenSpec) (*ScreenReport, error) {
	ss = ss.withDefaults()
	if err := ss.Validate(); err != nil {
		return nil, err
	}
	s := ss.Spec
	model := s.newScreenModel()
	rep := &ScreenReport{}

	type scored struct {
		Candidate
		key string
	}
	var pool []scored
	seen := make(map[string]bool)
	add := func(origin string, assign []int) {
		rep.Generated++
		key := canonicalKey(s.Demands, assign, s.Backends)
		if seen[key] {
			return
		}
		seen[key] = true
		score, used := model.score(s.Demands, assign, s.Backends)
		pool = append(pool, scored{
			Candidate: Candidate{
				Origin:       origin,
				Assignment:   append([]int(nil), assign...),
				BackendsUsed: used,
				Score:        score,
			},
			key: key,
		})
	}

	// Policy bases at every density: each built-in (or caller-supplied)
	// policy placed against 1..Backends available backends.
	for b := 1; b <= s.Backends; b++ {
		cons := s.constraints()
		cons.Backends = b
		for _, p := range s.Policies {
			add(fmt.Sprintf("%s@b%d", p.Name(), b), p.Place(cons, s.Demands))
		}
	}

	// Seeded perturbations: move one tenant of a base placement to another
	// backend. The stream is a pure function of the spec seed, so the
	// screen is deterministic; duplicates (by canonical key) don't count
	// against the candidate budget but bound the attempt loop.
	bases := len(pool)
	rng := splitmix64(s.Seed ^ 0x5c0e5c0e)
	attempts := 0
	for len(pool) < ss.Candidates && attempts < 64*ss.Candidates && bases > 0 {
		attempts++
		rng = splitmix64(rng)
		base := pool[rng%uint64(bases)].Assignment
		rng = splitmix64(rng)
		di := int(rng % uint64(len(base)))
		rng = splitmix64(rng)
		nb := int(rng % uint64(s.Backends))
		if base[di] == nb {
			continue
		}
		mut := append([]int(nil), base...)
		mut[di] = nb
		add(fmt.Sprintf("perturb#%d", attempts), mut)
	}
	rep.Candidates = len(pool)

	// Pareto frontier, minimizing (backends used, score): sort by density
	// then score, and keep each density's best candidate when it strictly
	// improves on every sparser frontier point.
	sort.SliceStable(pool, func(a, b int) bool {
		if pool[a].BackendsUsed != pool[b].BackendsUsed {
			return pool[a].BackendsUsed < pool[b].BackendsUsed
		}
		return pool[a].Score < pool[b].Score
	})
	best := math.Inf(1)
	lastUsed := -1
	for _, c := range pool {
		if c.BackendsUsed == lastUsed || c.Score >= best {
			continue
		}
		rep.Frontier = append(rep.Frontier, c.Candidate)
		best = c.Score
		lastUsed = c.BackendsUsed
	}

	// Materialize the frontier: one fixed-assignment policy per candidate,
	// through the ordinary simulation path.
	sims := rep.Frontier
	if len(sims) > maxSims {
		sims = sims[:maxSims]
	}
	if len(sims) > 0 {
		spec := s
		spec.Policies = make([]PlacementPolicy, len(sims))
		for i, c := range sims {
			spec.Policies[i] = fixedPolicy{
				name:   fmt.Sprintf("screen%02d[b%d]", i, c.BackendsUsed),
				assign: c.Assignment,
			}
		}
		r, err := Run(ctx, spec)
		if err != nil {
			return nil, err
		}
		rep.Simulated = r
	}
	return rep, nil
}

// FormatScreen writes the screening outcome: the scoring volume, the
// frontier with predicted scores, and the simulated truth for each
// materialized frontier placement.
func FormatScreen(w io.Writer, r *ScreenReport) {
	fmt.Fprintf(w, "fleet screen: %d candidates scored, %d on frontier, %d simulated\n",
		r.Candidates, len(r.Frontier), simCount(r))
	fmt.Fprintf(w, "%-10s %-16s %8s %10s\n", "frontier", "origin", "backends", "score")
	for i, c := range r.Frontier {
		fmt.Fprintf(w, "%-10s %-16s %8d %10.3f\n",
			fmt.Sprintf("screen%02d", i), c.Origin, c.BackendsUsed, c.Score)
	}
	if r.Simulated != nil {
		fmt.Fprintln(w)
		Format(w, r.Simulated)
	}
}

// simCount returns how many frontier placements were simulated.
func simCount(r *ScreenReport) int {
	if r.Simulated == nil {
		return 0
	}
	return len(r.Simulated.Policies)
}
