package churn

import (
	"fmt"
	"io"

	"essdsim/internal/results"
)

// EpochsTable renders the time series as one row per control epoch.
// Schema documented in docs/formats.md (fleet_churn_epochs.csv).
func EpochsTable(r *Report) *results.Table {
	t := results.NewTable("fleet_churn_epochs",
		"epoch", "tenants", "backends_used",
		"offered_mbps", "utilization", "stranded_mbps",
		"creates", "deletes", "expands", "shrinks", "snapshots",
		"migrations", "move_mb",
		"p99_violations", "p999_violations", "throttled_tenants",
		"achieved_mbps", "worst_p99_ms", "worst_p999_ms", "shared_debt_bytes",
	)
	for _, e := range r.Epochs {
		t.AddRow(
			results.Int(int64(e.Epoch)),
			results.Int(int64(e.Tenants)),
			results.Int(int64(e.BackendsUsed)),
			results.Float(e.OfferedBps/1e6),
			results.Float(e.MeanUtilization),
			results.Float(e.StrandedBps/1e6),
			results.Int(int64(e.Creates)),
			results.Int(int64(e.Deletes)),
			results.Int(int64(e.Expands)),
			results.Int(int64(e.Shrinks)),
			results.Int(int64(e.Snapshots)),
			results.Int(int64(e.Migrations)),
			results.Float(float64(e.MoveBytes)/1e6),
			results.Int(int64(e.P99Violations)),
			results.Int(int64(e.P999Violations)),
			results.Int(int64(e.ThrottledTenants)),
			results.Float(e.AchievedBps/1e6),
			results.Millis(e.WorstP99),
			results.Millis(e.WorstP999),
			results.Int(e.SharedDebt),
		)
	}
	return t
}

// EventsTable renders the audit trail as one row per applied lifecycle
// event or migration. Schema documented in docs/formats.md
// (fleet_churn_events.csv).
func EventsTable(r *Report) *results.Table {
	t := results.NewTable("fleet_churn_events",
		"epoch", "kind", "tenant", "demand",
		"from_backend", "to_backend", "scale", "move_bytes",
	)
	for _, ev := range r.Events {
		t.AddRow(
			results.Int(int64(ev.Epoch)),
			ev.Kind.String(),
			ev.Tenant,
			ev.Demand,
			results.Int(int64(ev.From)),
			results.Int(int64(ev.To)),
			results.Float(ev.Scale),
			results.Int(ev.MoveBytes),
		)
	}
	return t
}

// WriteEpochsCSV dumps the per-epoch time series as CSV.
func WriteEpochsCSV(w io.Writer, r *Report) error {
	return EpochsTable(r).WriteCSV(w)
}

// WriteEventsCSV dumps the event audit trail as CSV.
func WriteEventsCSV(w io.Writer, r *Report) error {
	return EventsTable(r).WriteCSV(w)
}

// Format writes the study as an aligned per-epoch table with a totals
// line: the population, packing state, event counts, and measured SLO
// outcome of every control epoch.
func Format(w io.Writer, r *Report) {
	fmt.Fprintf(w, "Fleet churn: %d epochs of %v on %d backends (budget %.0f MB/s), placement %s, rebalance %s\n",
		len(r.Epochs), r.EpochLen, r.Backends, r.BackendBps/1e6, r.Placement, r.Rebalancer)
	fmt.Fprintf(w, "%5s %7s %8s %6s %10s %7s %7s %9s %10s %9s %10s\n",
		"epoch", "tenants", "backends", "util%", "strandedMB", "events", "moves", "p99-viol", "p999-viol", "throttle", "worst-p99")
	for _, e := range r.Epochs {
		events := e.Creates + e.Deletes + e.Expands + e.Shrinks + e.Snapshots
		fmt.Fprintf(w, "%5d %7d %8d %6.0f %10.0f %7d %7d %9d %10d %9d %10s\n",
			e.Epoch, e.Tenants, e.BackendsUsed, e.MeanUtilization*100,
			e.StrandedBps/1e6, events, e.Migrations,
			e.P99Violations, e.P999Violations, e.ThrottledTenants, results.LatencyCoarse(e.WorstP99))
	}
	fmt.Fprintf(w, "total: %d migrations (%.0f MB moved), %d p99 violations, %d p99.9 violations\n",
		r.TotalMigrations, float64(r.TotalMoveBytes)/1e6,
		r.TotalP99Violations, r.TotalP999Violations)
}
