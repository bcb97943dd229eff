package churn

import (
	"fmt"
	"sort"
	"strings"
)

// TenantView is one live volume as a rebalancing decision sees it: the
// nominal offered load, never measured latencies — the control plane
// works from the provider-visible numbers, exactly like placement.
type TenantView struct {
	Name       string
	Backend    int
	OfferedBps float64
}

// View is the nominal fleet state one epoch's rebalancing decision is
// made from.
type View struct {
	Backends   int
	BackendBps float64   // per-backend offered budget
	Load       []float64 // nominal offered bytes/s per backend
	Tenants    []TenantView
	Budget     int // moves the control plane will apply this epoch
}

// Move relocates Tenants[Tenant] to backend To. Each applied move costs
// one volume copy (Spec.moveBytes).
type Move struct {
	Tenant int
	To     int
}

// Rebalancer plans migrations between epochs. Plan must be a pure
// function of the view (no randomness, no retained state) so churn
// timelines stay deterministic; moves beyond View.Budget are dropped.
type Rebalancer interface {
	Name() string
	Plan(v View) []Move
}

// NeverMove is the do-nothing baseline: volumes stay where placement
// put them, whatever the load skew. Migration cost zero, SLO exposure
// maximal.
type NeverMove struct{}

// Name implements Rebalancer.
func (NeverMove) Name() string { return "never" }

// Plan implements Rebalancer.
func (NeverMove) Plan(View) []Move { return nil }

// Threshold migrates eagerly when a backend's nominal utilization
// (offered / BackendBps) exceeds highUtil: largest tenants first off the
// hottest backend onto the least-loaded one, until every backend is
// under the threshold or the epoch's budget is spent.
type Threshold struct{}

// Name implements Rebalancer.
func (t Threshold) Name() string { return "threshold" }

// Plan implements Rebalancer.
func (t Threshold) Plan(v View) []Move { return drainPlan(v, v.Budget) }

// Drain is the lazy variant of Threshold: the same overload trigger,
// but at most one migration per epoch — a background drain that trades
// longer overload exposure for minimal migration cost.
type Drain struct{}

// Name implements Rebalancer.
func (d Drain) Name() string { return "drain" }

// Plan implements Rebalancer.
func (d Drain) Plan(v View) []Move { return drainPlan(v, 1) }

// highUtil is the nominal utilization above which Threshold and Drain
// consider a backend overloaded.
const highUtil = 1.0

// drainPlan moves the largest tenants off overloaded backends onto the
// least-loaded ones, at most maxMoves this epoch. Ties break toward the
// lower backend/tenant index so plans are deterministic.
func drainPlan(v View, maxMoves int) []Move {
	load := append([]float64(nil), v.Load...)
	var moves []Move
	for len(moves) < maxMoves {
		hot := -1
		for b := 0; b < v.Backends; b++ {
			if load[b] > highUtil*v.BackendBps && (hot < 0 || load[b] > load[hot]) {
				hot = b
			}
		}
		if hot < 0 {
			return moves
		}
		// Largest tenant on the hot backend; stable order for ties.
		cand := -1
		for i, t := range v.Tenants {
			if t.Backend != hot {
				continue
			}
			if moved(moves, i) {
				continue
			}
			if cand < 0 || t.OfferedBps > v.Tenants[cand].OfferedBps {
				cand = i
			}
		}
		if cand < 0 {
			return moves
		}
		cold := 0
		for b := 1; b < v.Backends; b++ {
			if load[b] < load[cold] {
				cold = b
			}
		}
		if cold == hot {
			return moves
		}
		moves = append(moves, Move{Tenant: cand, To: cold})
		load[hot] -= v.Tenants[cand].OfferedBps
		load[cold] += v.Tenants[cand].OfferedBps
	}
	return moves
}

func moved(moves []Move, tenant int) bool {
	for _, m := range moves {
		if m.Tenant == tenant {
			return true
		}
	}
	return false
}

// Rebalancers returns the built-in policies in comparison order.
func Rebalancers() []Rebalancer {
	return []Rebalancer{NeverMove{}, Threshold{}, Drain{}}
}

// RebalancerNames lists the valid RebalancerByName inputs.
func RebalancerNames() []string {
	names := make([]string, 0, 3)
	for _, r := range Rebalancers() {
		names = append(names, r.Name())
	}
	sort.Strings(names)
	return names
}

// RebalancerByName maps a flag value to its policy, with a descriptive
// error for unknown names.
func RebalancerByName(name string) (Rebalancer, error) {
	for _, r := range Rebalancers() {
		if r.Name() == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("churn: unknown rebalancer %q (valid: %s)",
		name, strings.Join(RebalancerNames(), ", "))
}
