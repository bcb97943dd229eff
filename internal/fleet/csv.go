package fleet

import (
	"fmt"
	"io"
	"strings"

	"essdsim/internal/results"
)

// BackendsTable renders the study as one row per (policy, materialized
// backend): membership, nominal load against the packing budgets, and the
// backend's aggregate outcome. Schema documented in docs/formats.md.
func BackendsTable(r *Report) *results.Table {
	t := results.NewTable("fleet_backends",
		"policy", "backend", "tenants", "members",
		"offered_mbps", "write_mbps", "utilization",
		"achieved_mbps", "shared_debt_bytes", "throttled_tenants",
		"worst_p99_ms", "worst_p999_ms",
	)
	for _, pr := range r.Policies {
		for _, br := range pr.Backends {
			t.AddRow(
				pr.Policy,
				results.Int(int64(br.Index)),
				results.Int(int64(len(br.Tenants))),
				strings.Join(br.Tenants, "+"),
				results.Float(br.OfferedBps/1e6),
				results.Float(br.WriteBps/1e6),
				results.Float(br.Utilization),
				results.Float(br.AchievedBps/1e6),
				results.Int(br.SharedDebt),
				results.Int(int64(br.Throttled)),
				results.Millis(br.WorstP99),
				results.Millis(br.WorstP999),
			)
		}
	}
	return t
}

// TenantsTable renders the study as one row per (policy, tenant): the
// demand, the backend it landed on, its measured tail, SLO verdicts, and
// its inflation over the solo control. Schema documented in
// docs/formats.md.
func TenantsTable(r *Report) *results.Table {
	t := results.NewTable("fleet_tenants",
		"policy", "tenant", "backend",
		"rate_per_s", "block_size", "write_ratio_pct", "arrival",
		"ops", "bytes", "elapsed_s", "mbps",
		"lat_p50_ms", "lat_p99_ms", "lat_p999_ms",
		"p99_violation", "p999_violation",
		"p99_inflation", "p999_inflation",
		"throttled", "throttle_onset_s", "budget_stall_s", "debt_added_bytes",
	)
	for _, pr := range r.Policies {
		for _, tr := range pr.Tenants {
			t.AddRow(
				pr.Policy,
				tr.Name,
				results.Int(int64(tr.Backend)),
				results.Float(tr.RatePerSec),
				results.Int(tr.BlockSize),
				results.Int(int64(tr.WriteRatioPct)),
				tr.Arrival.String(),
				results.Uint(tr.Ops),
				results.Int(tr.Bytes),
				results.Seconds(tr.Elapsed),
				results.Float(tr.ThroughputBps/1e6),
				results.Millis(tr.Lat.P50),
				results.Millis(tr.Lat.P99),
				results.Millis(tr.Lat.P999),
				results.Bool(tr.P99Violation),
				results.Bool(tr.P999Violation),
				results.Float(tr.P99Inflation),
				results.Float(tr.P999Inflation),
				results.Bool(tr.Throttled),
				results.Seconds(tr.ThrottleOnset),
				results.Seconds(tr.BudgetStall),
				results.Int(tr.DebtAdded),
			)
		}
	}
	return t
}

// WriteBackendsCSV dumps the per-backend table as CSV.
func WriteBackendsCSV(w io.Writer, r *Report) error {
	return BackendsTable(r).WriteCSV(w)
}

// WriteTenantsCSV dumps the per-tenant table as CSV.
func WriteTenantsCSV(w io.Writer, r *Report) error {
	return TenantsTable(r).WriteCSV(w)
}

// Format writes the policy-vs-policy comparison as aligned tables: one
// fleet-wide summary row per policy, then each policy's per-backend
// breakdown.
func Format(w io.Writer, r *Report) {
	fmt.Fprintf(w, "Fleet packing: %d tenants on up to %d backends, budget %.0f MB/s (write %.0f MB/s), SLO p99<%s p99.9<%s\n",
		r.Tenants, r.Backends, r.BackendBps/1e6, r.WriteBps/1e6,
		results.LatencyCoarse(r.SLOP99), results.LatencyCoarse(r.SLOP999))
	fmt.Fprintf(w, "%-13s %8s %6s %9s %10s %9s %10s %11s\n",
		"policy", "backends", "util%", "p99-viol", "p999-viol", "throttled", "worst-p99x", "worst-p999x")
	for _, pr := range r.Policies {
		fmt.Fprintf(w, "%-13s %8d %6.0f %9d %10d %9d %10.2f %11.2f\n",
			pr.Policy, pr.BackendsUsed, pr.MeanUtilization*100,
			pr.P99Violations, pr.P999Violations, pr.ThrottledTenants,
			pr.WorstP99Inflation, pr.WorstP999Inflation)
	}
	for _, pr := range r.Policies {
		fmt.Fprintf(w, "\n%s:\n", pr.Policy)
		fmt.Fprintf(w, "  %3s %7s %6s %9s %9s %9s %9s %8s  %s\n",
			"b", "tenants", "util%", "offeredMB", "worstp99", "worstp999", "debtMB", "throttle", "members")
		for _, br := range pr.Backends {
			fmt.Fprintf(w, "  %3d %7d %6.0f %9.0f %9s %9s %9d %8d  %s\n",
				br.Index, len(br.Tenants), br.Utilization*100, br.OfferedBps/1e6,
				results.LatencyCoarse(br.WorstP99), results.LatencyCoarse(br.WorstP999),
				br.SharedDebt/1e6, br.Throttled, strings.Join(br.Tenants, "+"))
		}
	}
}
