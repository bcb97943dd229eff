// Command ucexperiments regenerates the paper's evaluation artifacts
// (Table I and Figures 2-5) on the simulated devices and prints them in the
// paper's layout, plus the burst-credit scenario suite, the latency-SLO
// search behind Observation #4 on the burstable tiers, the noisy-neighbor
// suite measuring cross-tenant interference on a shared backend, the QoS
// isolation comparison running that suite under every scheduling policy
// (fifo, wfq, reservation) on identical arrival streams, and the fleet
// tenant-packing study comparing placement policies over many shared
// backends. -isolation selects one backend scheduling policy for the
// neighbor and fleet suites; -exp isolation sweeps them all. Optionally
// dumps raw CSV series for plotting (docs/formats.md describes the
// schemas).
//
// The neighbor suite's aggressors are synthetic by default; with
// -aggr-trace FILE (and -aggr-trace-format msr for MSR-Cambridge CSV) the
// aggressor rate, write ratio, and block size are instead fitted from a
// real trace (trace.Fit + trace.ProfileOf onto the neighbor volume
// geometry).
//
// The fleet study (-exp fleet) packs -fleet-tenants synthetic tenants
// (-fleet-aggressors of them bursty write floods) onto -fleet-backends
// shared backends under each -fleet-policy, and reports per-policy SLO
// violations, utilization, and worst-victim inflation vs a solo control.
//
// The KV study (-exp kv) runs fleet-style key-value tenants — each an LSM
// or page-store engine (-kv-engines) on its own elastic volume of a
// shared backend — under open-loop zipfian point reads and writes,
// sweeping engine design × key skew (-kv-skews) × value size
// (-kv-value-sizes) × backend tier (-kv-tiers). The report shows each
// design's foreground op tail next to its read/write amplification,
// cache hit rate, stalls, and the shared-debt coupling its background
// work (flushes, compactions, page-miss reads) induces.
//
// The churn study (-exp churn) runs the same catalog through the fleet
// control plane: -churn-epochs control epochs of seeded lifecycle events
// at -churn-rate events per epoch (create, delete, expand, shrink,
// snapshot-as-write-burst), online placement via the first -fleet-policy,
// and the -rebalance policy (never, threshold, or drain) migrating
// volumes between epochs. The report is a per-epoch time series of SLO
// violations, utilization, stranded capacity, and migration cost.
//
// Experiment cells run concurrently on an internal/expgrid worker pool
// (-workers, default GOMAXPROCS); results are deterministic and identical
// to a serial run regardless of worker count. With -cache FILE, burst,
// SLO, neighbor, fleet, and KV cells are memoized in a persistent sweep cache:
// a repeat run loads the file, executes zero new cells, and prints how
// many cells each suite skipped, reproducing the same measurements and
// byte-identical -out CSV dumps.
//
// -quick shrinks every grid for a fast pass; flags given explicitly on
// the command line keep their values under it. Every flag is validated,
// and -out created, before the first suite runs.
//
// Examples:
//
//	ucexperiments -exp table1
//	ucexperiments -exp fig2 -quick
//	ucexperiments -exp burst -quick
//	ucexperiments -exp neighbor -quick -out results/
//	ucexperiments -exp neighbor -isolation wfq -victim-weight 2
//	ucexperiments -exp isolation -quick -out results/
//	ucexperiments -exp fleet -isolation reservation
//	ucexperiments -exp neighbor -aggr-trace msr-rows.csv -aggr-trace-format msr
//	ucexperiments -exp fleet -quick -cache sweepcache.json
//	ucexperiments -exp fleet -fleet-tenants 16 -fleet-backends 4 -fleet-policy spread,interference
//	ucexperiments -exp churn -quick -cache sweepcache.json
//	ucexperiments -exp churn -churn-rate 3 -rebalance drain -out results/
//	ucexperiments -exp kv -quick -cache sweepcache.json
//	ucexperiments -exp kv -kv-engines lsm -kv-skews 0,0.5,0.99 -kv-tiers essd1,essd2 -out results/
//	ucexperiments -exp slo -slo-p99 20ms -out results/
//	ucexperiments -exp slo -quick -cache sweepcache.json
//	ucexperiments -exp all -out results/ -workers 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"essdsim/internal/blockdev"
	"essdsim/internal/churn"
	"essdsim/internal/cli"
	"essdsim/internal/expgrid"
	"essdsim/internal/fleet"
	"essdsim/internal/harness"
	"essdsim/internal/obs"
	"essdsim/internal/profiles"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/slo"
	"essdsim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one ucexperiments invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	x := &experiments{stdout: stdout, stderr: stderr}
	return cli.Exit("ucexperiments", stderr, x.main(args))
}

// experiments is one invocation: its flag values, what was parsed from
// them, and its output streams.
type experiments struct {
	cli.Flags
	exp, out                        string
	quick, screen, explain          bool
	sloP99, fleetP999               time.Duration
	aggrArrival, aggrTrace          string
	aggrTraceFormat                 string
	fleetTenants, fleetAggr         int
	fleetBackends, screenCandidates int
	fleetPolicy, rebalance          string
	churnRate                       float64
	churnEpochs                     int
	victimWeight, victimReserved    float64
	kvEngines, kvSkews              string
	kvValues, kvTiers               string
	kvTenants, kvReadFrac           int
	kvRate                          float64

	set         map[string]bool // flags given on the command line
	arrival     workload.Arrival
	aggressor   *fleet.Demand // fitted from -aggr-trace
	aggrRecords int
	policies    []fleet.PlacementPolicy
	rebalancer  churn.Rebalancer
	engines     []string
	tiers       []string
	skews       []float64
	valueSizes  []int64
	opts        harness.Options
	cache       *expgrid.Cache

	stdout, stderr io.Writer
}

// suite is one -exp experiment.
type suite struct {
	name string
	run  func() error
}

// flagSet declares every ucexperiments flag on a new flag set.
func (x *experiments) flagSet() *flag.FlagSet {
	fs := cli.NewFlagSet("ucexperiments", x.stderr)
	fs.StringVar(&x.exp, "exp", "all", "table1, fig2, fig3, fig4, fig5, burst, slo, neighbor, isolation, fleet, churn, kv, or all")
	fs.BoolVar(&x.quick, "quick", false, "reduced grids for a fast pass (explicitly set flags keep their values)")
	fs.StringVar(&x.out, "out", "", "directory for raw CSV dumps (optional)")
	fs.DurationVar(&x.sloP99, "slo-p99", 20*time.Millisecond, "p99 target of the -exp slo search")
	fs.StringVar(&x.aggrArrival, "aggr-arrival", "bursty", "-exp neighbor aggressor arrival shape: bursty or poisson")
	fs.StringVar(&x.aggrTrace, "aggr-trace", "", "-exp neighbor: fit aggressor rate/write-ratio/size from this trace file")
	fs.StringVar(&x.aggrTraceFormat, "aggr-trace-format", "text", "trace file format for -aggr-trace: text or msr")
	fs.IntVar(&x.fleetTenants, "fleet-tenants", 12, "-exp fleet tenant catalog size")
	fs.IntVar(&x.fleetAggr, "fleet-aggressors", 3, "-exp fleet bursty write-flood tenants within the catalog")
	fs.IntVar(&x.fleetBackends, "fleet-backends", 0, "-exp fleet packing density: backends available to every policy (0 = fit nominal load)")
	fs.StringVar(&x.fleetPolicy, "fleet-policy", "all", "-exp fleet policies: all or a comma list of first-fit, spread, best-fit, interference")
	fs.DurationVar(&x.fleetP999, "fleet-slo-p999", 5*time.Millisecond, "-exp fleet p99.9 target the violation columns count against")
	fs.BoolVar(&x.screen, "screen", false, "-exp fleet: two-fidelity mode — score placements analytically, simulate only the Pareto frontier")
	fs.IntVar(&x.screenCandidates, "screen-candidates", 1024, "-exp fleet -screen analytic candidate budget")
	fs.Float64Var(&x.churnRate, "churn-rate", 1.5, "-exp churn mean lifecycle events per epoch (0 = static fleet)")
	fs.IntVar(&x.churnEpochs, "churn-epochs", 6, "-exp churn control epochs")
	fs.StringVar(&x.rebalance, "rebalance", "threshold", "-exp churn rebalancing policy: never, threshold, or drain")
	fs.Float64Var(&x.victimWeight, "victim-weight", 0, "-exp neighbor victim scheduling weight under wfq/reservation (0 = default 1)")
	fs.Float64Var(&x.victimReserved, "victim-reserved-bps", 0, "-exp neighbor victim reserved bytes/s under -isolation reservation (0 = 2x victim offered)")
	fs.StringVar(&x.kvEngines, "kv-engines", "lsm,pagestore", "-exp kv storage-engine designs (comma list of lsm, pagestore)")
	fs.StringVar(&x.kvSkews, "kv-skews", "0,0.99", "-exp kv zipfian key skews in [0,1) (comma list)")
	fs.StringVar(&x.kvValues, "kv-value-sizes", "1024", "-exp kv put value sizes in bytes (comma list)")
	fs.StringVar(&x.kvTiers, "kv-tiers", "essd1", "-exp kv backend tier profiles (comma list of essd1, essd2, gp3, gp2, gp2s, pl1)")
	fs.IntVar(&x.kvTenants, "kv-tenants", 3, "-exp kv tenants sharing each cell's backend")
	fs.Float64Var(&x.kvRate, "kv-rate", 4000, "-exp kv per-tenant offered op rate")
	fs.IntVar(&x.kvReadFrac, "kv-read-frac", 50, "-exp kv percentage of ops that are point reads (-1 = pure ingest)")
	fs.BoolVar(&x.explain, "explain", false, "-exp neighbor: print the per-cell cliff-attribution report")
	x.Declare(fs, 7, "-exp neighbor")
	return fs
}

// suites lists every experiment in -exp all order.
func (x *experiments) suites() []suite {
	return []suite{
		{"table1", x.table1}, {"fig2", x.fig2}, {"fig3", x.fig3}, {"fig4", x.fig4},
		{"fig5", x.fig5}, {"burst", x.burst}, {"neighbor", x.neighbor},
		{"isolation", x.isolation}, {"fleet", x.fleet}, {"churn", x.churn},
		{"kv", x.kv}, {"slo", x.slo},
	}
}

func (x *experiments) main(args []string) error {
	fs := x.flagSet()
	if err := x.Parse(fs, args); err != nil {
		return err
	}
	x.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { x.set[f.Name] = true })
	var runs []func() error
	for _, s := range x.suites() {
		if x.exp == "all" || x.exp == s.name {
			runs = append(runs, s.run)
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("unknown -exp %q", x.exp)
	}
	if err := x.validate(); err != nil {
		return err
	}
	if x.out != "" {
		if err := os.MkdirAll(x.out, 0o755); err != nil {
			return fmt.Errorf("-out: %w", err)
		}
	}
	stop, err := x.StartProfiles(x.stderr)
	if err != nil {
		return err
	}
	defer stop()
	if x.cache, err = x.LoadCache(); err != nil {
		return err
	}
	x.opts = harness.Options{Seed: x.Seed, Workers: x.Workers}
	if x.quick {
		x.opts.CellDuration = 150 * sim.Millisecond
		x.opts.Warmup = 30 * sim.Millisecond
	}
	for _, run := range runs {
		if err := run(); err != nil {
			return err
		}
	}
	if x.cache == nil {
		return nil
	}
	if err := x.SaveCache(x.cache); err != nil {
		return err
	}
	hits, misses := x.cache.Stats()
	fmt.Fprintf(x.stdout, "sweep cache: %d entries, %d hits, %d cells simulated (%s)\n",
		x.cache.Len(), hits, misses, x.Cache)
	return nil
}

// validate checks every flag value, and fits the -aggr-trace aggressors,
// before any suite runs, so no input error surfaces after minutes of
// simulation and no out-of-range value silently runs a default instead.
func (x *experiments) validate() error {
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{(x.Observing() || x.explain) && x.exp != "all" && x.exp != "neighbor",
			fmt.Sprintf("-trace-out/-probe-out/-explain apply to -exp neighbor, not -exp %s", x.exp)},
		{x.fleetTenants < 1, fmt.Sprintf("-fleet-tenants wants at least 1 tenant, got %d", x.fleetTenants)},
		{x.fleetAggr < 0, fmt.Sprintf("-fleet-aggressors wants a count >= 0, got %d", x.fleetAggr)},
		{x.fleetBackends < 0, fmt.Sprintf("-fleet-backends wants a count >= 0 (0 = fit nominal load), got %d", x.fleetBackends)},
		{x.fleetP999 <= 0, fmt.Sprintf("-fleet-slo-p999 wants a positive target, got %s", x.fleetP999)},
		{x.screenCandidates < 1, fmt.Sprintf("-screen-candidates wants at least 1, got %d", x.screenCandidates)},
		{x.churnEpochs < 1, fmt.Sprintf("-churn-epochs wants at least 1 epoch, got %d", x.churnEpochs)},
		{x.kvTenants < 1, fmt.Sprintf("-kv-tenants wants at least 1 tenant, got %d", x.kvTenants)},
		{x.kvRate <= 0, fmt.Sprintf("-kv-rate wants a positive op rate, got %g", x.kvRate)},
	} {
		if c.bad {
			return errors.New(c.msg)
		}
	}
	var err error
	if x.arrival, err = workload.ParseArrival(x.aggrArrival); err != nil || x.arrival == workload.Uniform {
		return fmt.Errorf("-aggr-arrival wants bursty or poisson, got %q", x.aggrArrival)
	}
	x.policies = fleet.DefaultPolicies()
	if x.fleetPolicy != "all" {
		if x.policies, err = cli.ParseList(x.fleetPolicy, fleet.PolicyByName); err != nil {
			return fmt.Errorf("-fleet-policy: %w", err)
		}
	}
	if x.rebalancer, err = churn.RebalancerByName(x.rebalance); err != nil {
		return err
	}
	if x.engines, err = cli.List(x.kvEngines); err != nil {
		return fmt.Errorf("-kv-engines: %w", err)
	}
	if x.skews, err = cli.Floats(x.kvSkews); err != nil {
		return fmt.Errorf("-kv-skews: %w", err)
	}
	parseInt := func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
	if x.valueSizes, err = cli.ParseList(x.kvValues, parseInt); err != nil {
		return fmt.Errorf("-kv-value-sizes: %w", err)
	}
	if x.tiers, err = cli.List(x.kvTiers); err != nil {
		return fmt.Errorf("-kv-tiers: %w", err)
	}
	if x.aggrTrace == "" {
		return nil
	}
	// Real-trace aggressors: fit the records onto the neighbor volume
	// geometry; the fitted demand replaces the synthetic aggressor axis.
	recs, err := cli.ReadTrace(x.aggrTrace, x.aggrTraceFormat)
	if err != nil {
		return fmt.Errorf("-aggr-trace: %w", err)
	}
	vcfg := profiles.NeighborVolumeConfig("aggr")
	d, err := fleet.DemandFromTrace("aggr", recs, vcfg.Capacity, vcfg.BlockSize)
	if err != nil {
		return fmt.Errorf("-aggr-trace %s: %w", x.aggrTrace, err)
	}
	x.aggressor, x.aggrRecords = &d, len(recs)
	return nil
}

// quickInt is a flag's value, or the -quick value when -quick is on and
// the flag was not given explicitly.
func (x *experiments) quickInt(name string, v, quick int) int {
	if x.quick && !x.set[name] {
		return quick
	}
	return v
}

// csv writes one CSV file under -out; without -out it does nothing.
func (x *experiments) csv(name string, write func(io.Writer) error) error {
	if x.out == "" {
		return nil
	}
	return cli.WriteFile(filepath.Join(x.out, name), write)
}

// factory builds the named built-in profile for one cell, seeded from
// -seed and the cell seed.
func (x *experiments) factory(name string) harness.Factory {
	seed := x.Seed
	return func(s uint64) blockdev.Device {
		d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(seed^s, s+0x9))
		if err != nil {
			panic(err) // every caller names a built-in profile
		}
		return d
	}
}

// devices is a sweep device axis over the named built-in profiles.
func (x *experiments) devices(names ...string) []expgrid.NamedFactory {
	out := make([]expgrid.NamedFactory, len(names))
	for i, name := range names {
		out[i] = expgrid.NamedFactory{Name: name, New: x.factory(name)}
	}
	return out
}

func (x *experiments) table1() error {
	harness.FormatTableI(x.stdout, profiles.TableI())
	fmt.Fprintln(x.stdout)
	return nil
}

func (x *experiments) fig2() error {
	sizes, qds := harness.Fig2Sizes, harness.Fig2QDs
	if x.quick {
		sizes, qds = []int64{4 << 10, 64 << 10, 256 << 10}, []int{1, 4, 16}
	}
	ssdGrid := harness.RunLatencyGridWith(x.factory("ssd"), harness.Fig2Patterns, sizes, qds, x.opts)
	for i, name := range []string{"essd1", "essd2"} {
		grid := harness.RunLatencyGridWith(x.factory(name), harness.Fig2Patterns, sizes, qds, x.opts)
		fmt.Fprintf(x.stdout, "--- Figure 2%s/%s ---\n", string(rune('a'+2*i)), string(rune('b'+2*i)))
		harness.FormatFig2(x.stdout, grid, ssdGrid, harness.MetricAvg)
		fmt.Fprintln(x.stdout)
		harness.FormatFig2(x.stdout, grid, ssdGrid, harness.MetricP999)
		fmt.Fprintln(x.stdout)
		err := x.csv(fmt.Sprintf("fig2_%s.csv", name), func(w io.Writer) error {
			return harness.WriteFig2CSV(w, grid, ssdGrid)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (x *experiments) fig3() error {
	mult := 3.0
	if x.quick {
		mult = 1.5
	}
	results := harness.RunSustainedWrites(x.devices("essd1", "essd2", "ssd"), mult, x.opts)
	harness.FormatFig3(x.stdout, results)
	fmt.Fprintln(x.stdout)
	return x.csv("fig3.csv", func(w io.Writer) error { return harness.WriteFig3CSV(w, results) })
}

func (x *experiments) fig4() error {
	sizes, qds := harness.Fig4Sizes, harness.Fig4QDs
	if x.quick {
		sizes, qds = []int64{4 << 10, 32 << 10, 256 << 10}, []int{1, 8, 32}
	}
	var results []*harness.RandSeqResult
	for _, name := range []string{"essd1", "essd2", "ssd"} {
		results = append(results, harness.RunRandSeqSweepWith(x.factory(name), sizes, qds, x.opts))
	}
	harness.FormatFig4(x.stdout, results)
	fmt.Fprintln(x.stdout)
	return x.csv("fig4.csv", func(w io.Writer) error { return harness.WriteFig4CSV(w, results) })
}

func (x *experiments) fig5() error {
	ratios := harness.Fig5Ratios
	if x.quick {
		ratios = []int{0, 30, 50, 70, 100}
	}
	var results []*harness.MixedResult
	for _, name := range []string{"essd1", "essd2", "ssd"} {
		results = append(results, harness.RunMixedSweepWith(x.factory(name), ratios, x.opts))
	}
	harness.FormatFig5(x.stdout, results)
	return x.csv("fig5.csv", func(w io.Writer) error { return harness.WriteFig5CSV(w, results) })
}

func (x *experiments) burst() error {
	sweep := scenario.BurstSweep{
		Devices:    x.devices("gp2", "gp2s"),
		Cache:      x.cache,
		Seed:       x.Seed,
		Workers:    x.Workers,
		OnProgress: x.Progress(x.stderr, "burst"),
	}
	if x.quick {
		sweep.WriteRatiosPct = []int{0, 50, 100}
		sweep.RatesPerSec = []float64{3000}
		sweep.Ops = 3000
	}
	rep, err := scenario.RunBurst(context.Background(), sweep)
	if err != nil {
		return err
	}
	fmt.Fprintln(x.stdout, "--- Burst-credit scenario (Observation #4, burstable tiers) ---")
	scenario.FormatBurst(x.stdout, rep)
	x.Skipped(x.stdout, "burst", rep.CachedCells, len(rep.Cells))
	fmt.Fprintln(x.stdout)
	if err := x.csv("burst_cells.csv", func(w io.Writer) error { return scenario.WriteBurstCSV(w, rep) }); err != nil {
		return err
	}
	return x.csv("burst_timeline.csv", func(w io.Writer) error { return scenario.WriteBurstTimelineCSV(w, rep) })
}

// neighborSweep is the victim-vs-aggressors grid the neighbor and
// isolation suites share.
func (x *experiments) neighborSweep(label string) scenario.NeighborSweep {
	sweep := scenario.NeighborSweep{
		Cache:              x.cache,
		Seed:               x.Seed,
		Workers:            x.Workers,
		VictimWeight:       x.victimWeight,
		VictimReservedRate: x.victimReserved,
		OnProgress:         x.Progress(x.stderr, label),
	}
	if x.quick {
		sweep.AggressorCounts = []int{0, 2, 4}
		sweep.AggressorRatesPerSec = []float64{1600}
		sweep.VictimOps = 1200
	}
	return sweep
}

func (x *experiments) neighbor() error {
	sweep := x.neighborSweep("neighbor")
	sweep.AggressorArrival, sweep.Isolation = x.arrival, x.Isolation
	if x.Observing() || x.explain {
		sweep.Obs = x.ObsConfig()
	}
	if d := x.aggressor; d != nil {
		sweep.AggressorRatesPerSec = []float64{d.RatePerSec}
		sweep.AggressorWriteRatiosPct = []int{d.WriteRatioPct}
		sweep.AggressorBlockSize = d.BlockSize
		fmt.Fprintf(x.stdout, "neighbor aggressors fitted from %s: %.0f req/s, %d%% writes, %d-byte requests (%d records)\n",
			x.aggrTrace, d.RatePerSec, d.WriteRatioPct, d.BlockSize, x.aggrRecords)
	}
	rep, err := scenario.RunNeighbor(context.Background(), sweep)
	if err != nil {
		return err
	}
	fmt.Fprintln(x.stdout, "--- Noisy-neighbor scenario (shared backend, cross-tenant contract) ---")
	scenario.FormatNeighbor(x.stdout, rep)
	x.Skipped(x.stdout, "neighbor", rep.CachedCells, len(rep.Cells))
	if x.explain {
		obs.FormatExplanations(x.stdout, rep.Explanations)
	}
	if err := x.WriteCaptures(rep.Captures); err != nil {
		return err
	}
	fmt.Fprintln(x.stdout)
	return x.csv("neighbor_cells.csv", func(w io.Writer) error { return scenario.WriteNeighborCSV(w, rep) })
}

func (x *experiments) isolation() error {
	cmp := scenario.IsolationComparison{Sweep: x.neighborSweep("isolation")}
	rep, err := scenario.RunIsolationComparison(context.Background(), cmp)
	if err != nil {
		return err
	}
	fmt.Fprintln(x.stdout, "--- QoS isolation comparison (per-tenant scheduling on the shared backend) ---")
	scenario.FormatIsolation(x.stdout, rep)
	cells := 0
	for _, v := range rep.Variants {
		cells += len(v.Report.Cells)
	}
	x.Skipped(x.stdout, "isolation", rep.CachedCells, cells)
	fmt.Fprintln(x.stdout)
	return x.csv("isolation_comparison.csv", func(w io.Writer) error { return scenario.WriteIsolationCSV(w, rep) })
}

// fleetSpec is the packing study the fleet and churn suites share, over a
// synthetic catalog of the given size.
func (x *experiments) fleetSpec(tenants, aggressors int) fleet.Spec {
	spec := fleet.Spec{
		Demands:  fleet.SyntheticDemands(tenants, aggressors),
		Policies: x.policies,
		Backends: x.fleetBackends,
		SLOP999:  sim.Duration(x.fleetP999.Nanoseconds()),
		Cache:    x.cache,
		Seed:     x.Seed,
		Workers:  x.Workers,
	}
	spec.Backend.Isolation = x.Isolation
	return spec
}

func (x *experiments) fleet() error {
	spec := x.fleetSpec(x.quickInt("fleet-tenants", x.fleetTenants, 8), x.quickInt("fleet-aggressors", x.fleetAggr, 2))
	var rep *fleet.Report
	if x.screen {
		srep, err := fleet.Screen(context.Background(), fleet.ScreenSpec{Spec: spec, Candidates: x.screenCandidates})
		if err != nil {
			return err
		}
		fmt.Fprintln(x.stdout, "--- Fleet tenant packing (two-fidelity analytic screen) ---")
		fleet.FormatScreen(x.stdout, srep)
		rep = srep.Simulated
	} else {
		var err error
		if rep, err = fleet.Run(context.Background(), spec); err != nil {
			return err
		}
		fmt.Fprintln(x.stdout, "--- Fleet tenant packing (placement policies over shared backends) ---")
		fleet.Format(x.stdout, rep)
		x.Skipped(x.stdout, "fleet", rep.CachedCells, rep.Cells)
	}
	fmt.Fprintln(x.stdout)
	if rep == nil {
		return nil
	}
	if err := x.csv("fleet_backends.csv", func(w io.Writer) error { return fleet.WriteBackendsCSV(w, rep) }); err != nil {
		return err
	}
	return x.csv("fleet_tenants.csv", func(w io.Writer) error { return fleet.WriteTenantsCSV(w, rep) })
}

func (x *experiments) churn() error {
	spec := churn.Spec{
		Fleet:      x.fleetSpec(x.quickInt("fleet-tenants", x.fleetTenants, 6), x.quickInt("fleet-aggressors", x.fleetAggr, 1)),
		Epochs:     x.quickInt("churn-epochs", x.churnEpochs, 4),
		ChurnRate:  x.churnRate,
		Rebalancer: x.rebalancer,
	}
	if x.quick {
		spec.Fleet.Horizon = 500 * sim.Millisecond
	}
	rep, err := churn.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(x.stdout, "--- Fleet churn (lifecycle events, online placement, rebalancing) ---")
	churn.Format(x.stdout, rep)
	x.Skipped(x.stdout, "churn", rep.CachedCells, rep.Cells)
	fmt.Fprintln(x.stdout)
	if err := x.csv("fleet_churn_epochs.csv", func(w io.Writer) error { return churn.WriteEpochsCSV(w, rep) }); err != nil {
		return err
	}
	return x.csv("fleet_churn_events.csv", func(w io.Writer) error { return churn.WriteEventsCSV(w, rep) })
}

func (x *experiments) kv() error {
	sweep := scenario.KVMixSweep{
		Engines:     x.engines,
		Skews:       x.skews,
		ValueSizes:  x.valueSizes,
		Tiers:       x.tiers,
		Tenants:     x.quickInt("kv-tenants", x.kvTenants, 2),
		RatePerSec:  x.kvRate,
		ReadFracPct: x.kvReadFrac,
		Cache:       x.cache,
		Seed:        x.Seed,
		Workers:     x.Workers,
		OnProgress:  x.Progress(x.stderr, "kv"),
	}
	if x.quick {
		sweep.OpsPerTenant = 600
	}
	rep, err := scenario.RunKVMix(context.Background(), sweep)
	if err != nil {
		return err
	}
	fmt.Fprintln(x.stdout, "--- KV tenant mix (storage engines on shared elastic volumes) ---")
	scenario.FormatKVMix(x.stdout, rep)
	x.Skipped(x.stdout, "kv", rep.CachedCells, len(rep.Cells))
	fmt.Fprintln(x.stdout)
	return x.csv("kv_cells.csv", func(w io.Writer) error { return scenario.WriteKVCSV(w, rep) })
}

func (x *experiments) slo() error {
	fmt.Fprintln(x.stdout, "--- Latency-SLO search (highest rate meeting the target) ---")
	for _, device := range x.devices("gp2", "gp2s") {
		search := slo.Search{
			Device:  device,
			Pattern: workload.RandWrite,
			Target:  slo.Target{P99: sim.Duration(x.sloP99.Nanoseconds())},
			Cache:   x.cache,
			Seed:    x.Seed,
		}
		if x.quick {
			search.MaxRate = 3000
			search.Tolerance = 100
			search.Horizon = 3 * sim.Second
		}
		rep, err := slo.Run(context.Background(), search)
		if err != nil {
			return err
		}
		slo.Format(x.stdout, rep)
		fmt.Fprintln(x.stdout)
		err = x.csv(fmt.Sprintf("slo_probes_%s.csv", device.Name), func(w io.Writer) error { return slo.WriteProbesCSV(w, rep) })
		if err != nil {
			return err
		}
	}
	return nil
}
