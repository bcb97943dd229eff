package churn

import (
	"essdsim/internal/expgrid"
	"essdsim/internal/fleet"
	"essdsim/internal/sim"
)

// EpochReport is one control epoch's measured outcome: the population
// after that epoch's events and migrations, simulated for one horizon.
type EpochReport struct {
	Epoch   int
	Tenants int

	// Nominal (provider-visible) packing state.
	BackendsUsed int
	OfferedBps   float64
	// MeanUtilization is offered load over the budget of the backends in
	// use; StrandedBps is the budget headroom locked on those backends
	// (capacity a new tenant cannot get as one contiguous slot).
	MeanUtilization float64
	StrandedBps     float64

	// Lifecycle events applied at the start of the epoch.
	Creates, Deletes, Expands, Shrinks, Snapshots int
	Migrations                                    int
	MoveBytes                                     int64

	// Measured outcome across the epoch's backends.
	P99Violations, P999Violations int
	ThrottledTenants              int
	AchievedBps                   float64
	WorstP99, WorstP999           sim.Duration
	SharedDebt                    int64 // pooled cleaner debt summed over backends
	CachedBackends                int   // backends served from the sweep cache
}

// Report is the churn study's full outcome: the per-epoch time series
// plus the complete event audit trail and fleet-level totals.
type Report struct {
	Placement  string
	Rebalancer string

	Backends   int
	BackendBps float64
	SLOP99     sim.Duration
	SLOP999    sim.Duration
	EpochLen   sim.Duration

	Epochs []EpochReport
	Events []EventRecord // every applied event and migration, in order

	TotalMigrations                         int
	TotalMoveBytes                          int64
	TotalP99Violations, TotalP999Violations int

	// Cells and CachedCells count the distinct expgrid simulations
	// behind the whole timeline (deduplicated across epochs) and how
	// many were served from the sweep cache.
	Cells       int
	CachedCells int
}

// sloP99 is the fleet's p99 target (fleet.Spec documents it); the
// zero-churn test pins that churn and fleet count the same violations.
const sloP99 = 20 * sim.Millisecond

// fold assembles the time-series report from the epoch plans and the
// deduplicated cell results.
func (s Spec) fold(plans []epochPlan, cells []fleet.MixCell, results []expgrid.CellResult) *Report {
	rep := &Report{
		Placement:  s.placement().Name(),
		Rebalancer: s.Rebalancer.Name(),
		Backends:   s.Fleet.Backends,
		BackendBps: s.Fleet.BackendBps,
		SLOP99:     sloP99,
		SLOP999:    s.Fleet.SLOP999,
		EpochLen:   s.Fleet.Horizon,
		Cells:      len(results),
	}
	for _, r := range results {
		if r.Cached {
			rep.CachedCells++
		}
	}
	for e, plan := range plans {
		er := EpochReport{Epoch: e, Tenants: plan.tenants, OfferedBps: plan.offered}
		for _, rec := range plan.events {
			switch rec.Kind {
			case Create:
				er.Creates++
			case Delete:
				er.Deletes++
			case Expand:
				er.Expands++
			case Shrink:
				er.Shrinks++
			case Snapshot:
				er.Snapshots++
			case Migrate:
				er.Migrations++
				er.MoveBytes += rec.MoveBytes
			}
			rep.Events = append(rep.Events, rec)
		}
		var usedBudget float64
		for _, ref := range plan.refs {
			r := results[ref.cell]
			info := r.Info.(fleet.CellInfo)
			er.BackendsUsed++
			usedBudget += s.Fleet.BackendBps
			er.SharedDebt += info.SharedDebt
			if r.Cached {
				er.CachedBackends++
			}
			var offered float64
			var bytes int64
			var longest sim.Duration
			for mi := range cells[ref.cell].Members {
				offered += cells[ref.cell].Members[mi].OfferedBps()
				tr := r.Mix[mi]
				sum := tr.Open.Lat.Summarize()
				if sum.P99 > sloP99 {
					er.P99Violations++
				}
				if s.Fleet.SLOP999 > 0 && sum.P999 > s.Fleet.SLOP999 {
					er.P999Violations++
				}
				if info.Tenants[mi].Throttled {
					er.ThrottledTenants++
				}
				if sum.P99 > er.WorstP99 {
					er.WorstP99 = sum.P99
				}
				if sum.P999 > er.WorstP999 {
					er.WorstP999 = sum.P999
				}
				bytes += tr.Open.Bytes
				if tr.Open.Elapsed > longest {
					longest = tr.Open.Elapsed
				}
			}
			if longest > 0 {
				er.AchievedBps += float64(bytes) / longest.Seconds()
			}
			if head := s.Fleet.BackendBps - offered; head > 0 {
				er.StrandedBps += head
			}
		}
		if usedBudget > 0 {
			er.MeanUtilization = er.OfferedBps / usedBudget
		}
		rep.TotalMigrations += er.Migrations
		rep.TotalMoveBytes += er.MoveBytes
		rep.TotalP99Violations += er.P99Violations
		rep.TotalP999Violations += er.P999Violations
		rep.Epochs = append(rep.Epochs, er)
	}
	return rep
}
