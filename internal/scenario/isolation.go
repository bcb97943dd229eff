package scenario

import (
	"context"
	"fmt"
	"io"

	"essdsim/internal/qos"
	"essdsim/internal/results"
	"essdsim/internal/sim"
)

// IsolationComparison runs one noisy-neighbor sweep under several backend
// isolation policies and compares the victim's tail inflation per policy.
// Every variant reuses the base sweep's seed and label, so cell seeds —
// and hence every tenant's arrival draws — are identical across policies:
// the comparison isolates pure scheduling effects. The base sweep's
// Isolation.Policy is overridden per variant (fifo, wfq, reservation);
// its other isolation knobs (quantum, debt-share shaping, victim
// weight/reservation) carry over.
type IsolationComparison struct {
	Sweep NeighborSweep
}

// IsolationVariant is one policy's complete neighbor suite outcome plus
// the worst-case victim inflation across its interference cells.
type IsolationVariant struct {
	Policy qos.IsolationPolicy
	Report *NeighborReport

	// Worst victim tail inflation over the solo control, across every
	// cell with aggressors (0 when the sweep has no control cells).
	MaxP99Inflation  float64
	MaxP999Inflation float64
	// Worst absolute victim tails across interference cells.
	MaxVictimP99  sim.Duration
	MaxVictimP999 sim.Duration
	// ThrottledCells counts interference cells whose victim limiter
	// engaged — under isolation the neighbors' excess churn stays out of
	// the victim's observed debt, so this should not exceed fifo's count.
	ThrottledCells int
}

// IsolationReport is the cross-policy comparison.
type IsolationReport struct {
	Variants    []IsolationVariant
	CachedCells int // across all variants
}

// RunIsolationComparison executes the base neighbor sweep once per policy
// on the expgrid worker pool and folds the per-policy worst cases.
// Results are deterministic and identical for any worker count.
func RunIsolationComparison(ctx context.Context, c IsolationComparison) (*IsolationReport, error) {
	rep := &IsolationReport{}
	for _, p := range []qos.IsolationPolicy{qos.IsolationFIFO, qos.IsolationWFQ, qos.IsolationReservation} {
		s := c.Sweep
		s.Isolation.Policy = p
		nr, err := RunNeighbor(ctx, s)
		if err != nil {
			return nil, err
		}
		v := IsolationVariant{Policy: p, Report: nr}
		for _, cell := range nr.Cells {
			if cell.Aggressors == 0 {
				continue
			}
			if cell.P99Inflation > v.MaxP99Inflation {
				v.MaxP99Inflation = cell.P99Inflation
			}
			if cell.P999Inflation > v.MaxP999Inflation {
				v.MaxP999Inflation = cell.P999Inflation
			}
			if cell.VictimLat.P99 > v.MaxVictimP99 {
				v.MaxVictimP99 = cell.VictimLat.P99
			}
			if cell.VictimLat.P999 > v.MaxVictimP999 {
				v.MaxVictimP999 = cell.VictimLat.P999
			}
			if cell.Throttled {
				v.ThrottledCells++
			}
		}
		rep.Variants = append(rep.Variants, v)
		rep.CachedCells += nr.CachedCells
	}
	return rep, nil
}

// FormatIsolation writes the comparison as an aligned table: one row per
// policy with the worst-case victim tails and inflations across the
// interference cells.
func FormatIsolation(w io.Writer, r *IsolationReport) {
	fmt.Fprintf(w, "Isolation comparison: identical arrival streams per cell, backend scheduling policy swept\n")
	fmt.Fprintf(w, "%-12s %10s %10s %8s %8s %10s\n",
		"policy", "max-p99", "max-p99.9", "p99-x", "p999-x", "throttled")
	for _, v := range r.Variants {
		fmt.Fprintf(w, "%-12s %10s %10s %8.2f %8.2f %10d\n",
			v.Policy, results.Latency(v.MaxVictimP99), results.Latency(v.MaxVictimP999),
			v.MaxP99Inflation, v.MaxP999Inflation, v.ThrottledCells)
	}
}
