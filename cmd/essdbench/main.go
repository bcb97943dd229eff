// Command essdbench is a fio-like benchmark front end for the simulated
// devices: it runs one workload (from flags or a fio job file) against a
// chosen device profile and prints a fio-style summary.
//
// Comma-separated values in -device, -rw, -bs, or -iodepth turn the run
// into a sweep: the cross product of the listed values executes as an
// experiment grid on -workers parallel workers (deterministic results,
// one fresh preconditioned device per cell) and prints one summary row
// per cell.
//
// A non-zero -rate switches to open-loop mode: requests issue on an
// arrival schedule (-arrival) instead of a closed queue-depth loop.
// Comma lists in -device, -rw, -bs, -rate, or -arrival then run as a
// parallel open-loop sweep over the cross product.
//
// A non-zero -slo-p99 switches to latency-SLO search mode: instead of
// measuring one offered rate, essdbench binary-searches the -slo-range for
// the highest rate whose steady-state p99 meets the target, reporting both
// the pre-exhaustion and the post-cliff (credit-floor) SLO-max rates of
// burstable tiers.
//
// With -cache FILE, SLO-search probes and closed/open sweep cells persist
// across invocations: a repeat sweep loads the file, skips every
// already-computed cell, and prints "N of M cells skipped (cache-warm)".
// Single (non-sweep) runs reject -cache rather than silently ignoring it.
//
// A non-empty -trace switches to trace-replay mode: the file (native text
// format, or MSR-Cambridge CSV with -trace-format msr) replays on every
// listed device as a parallel trace-replay sweep. MSR traces are fitted
// onto each device's scaled geometry first.
//
// All invalid flag and workload-spec combinations print a diagnostic to
// stderr and exit non-zero.
//
// Examples:
//
//	essdbench -device essd1 -rw randwrite -bs 4k -iodepth 1 -runtime 1s
//	essdbench -device ssd -rw randread -bs 256k -iodepth 16 -runtime 500ms
//	essdbench -device essd2 -job job.fio
//	essdbench -device essd1,ssd -rw randwrite,write -bs 4k,64k,256k -iodepth 1,8 -workers 8
//	essdbench -device gp2,gp2s -rw randwrite -bs 256k -rate 1500,3000 -arrival uniform,bursty -ops 4000
//	essdbench -device gp2s -rw randwrite -bs 256k -slo-p99 20ms -slo-range 200,3000
//	essdbench -device essd1,essd2 -trace msr-rows.csv -trace-format msr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"essdsim"
	"essdsim/internal/cli"
	"essdsim/internal/fio"
	"essdsim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one essdbench invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	b := &bench{stdout: stdout, stderr: stderr}
	return cli.Exit("essdbench", stderr, b.main(args))
}

// bench is one invocation: its flag values, the axes parsed from them,
// and its output streams.
type bench struct {
	cli.Flags
	device, rw, bs, iodepth, arrival, rate  string
	runtime, warmup, size, jobFile, precond string
	sloRange, traceFile, traceFormat        string
	mixPct                                  int
	ops                                     uint64
	sloP99, sloP999                         time.Duration
	sloTol, weight, reservedBps             float64

	names    []string
	patterns []essdsim.Pattern
	sizes    []int64
	depths   []int
	arrivals []essdsim.Arrival
	rates    []float64
	prep     essdsim.SweepPrecond

	stdout, stderr io.Writer
}

var errMemo = errors.New("-cache needs a sweep (comma-list axes) or -slo-p99 search; a single run is never memoized")

// flagSet declares every essdbench flag on a new flag set.
func (b *bench) flagSet() *flag.FlagSet {
	fs := cli.NewFlagSet("essdbench", b.stderr)
	fs.StringVar(&b.device, "device", "essd1", "device profile(s): "+strings.Join(essdsim.ProfileNames(), ", "))
	fs.StringVar(&b.rw, "rw", "randread", "pattern(s): randread, randwrite, read, write, randrw")
	fs.StringVar(&b.bs, "bs", "4k", "I/O size(s) (k/m suffixes)")
	fs.StringVar(&b.iodepth, "iodepth", "1", "queue depth(s)")
	fs.StringVar(&b.runtime, "runtime", "1s", "measurement duration (simulated)")
	fs.StringVar(&b.warmup, "warmup", "100ms", "warmup excluded from stats")
	fs.StringVar(&b.size, "size", "", "stop after this many bytes instead of runtime")
	fs.IntVar(&b.mixPct, "rwmixwrite", 50, "write percentage for randrw")
	fs.StringVar(&b.jobFile, "job", "", "fio job file (overrides workload flags)")
	fs.StringVar(&b.precond, "precondition", "auto", "auto, full, half, none")
	fs.StringVar(&b.rate, "rate", "0", "open-loop arrival rate(s) (req/s); 0 = closed loop at -iodepth")
	fs.StringVar(&b.arrival, "arrival", "uniform", "open-loop arrival shape(s): uniform, poisson, bursty")
	fs.Uint64Var(&b.ops, "ops", 10000, "open-loop request count per cell (with -rate)")
	fs.DurationVar(&b.sloP99, "slo-p99", 0, "latency-SLO search mode: find the highest rate with p99 under this")
	fs.DurationVar(&b.sloP999, "slo-p999", 0, "additional p99.9 target for the SLO search")
	fs.StringVar(&b.sloRange, "slo-range", "100,4000", "SLO search rate range min,max (req/s)")
	fs.Float64Var(&b.sloTol, "slo-tol", 0, "SLO search convergence width in req/s (default range/64)")
	fs.StringVar(&b.traceFile, "trace", "", "trace-replay mode: replay this trace file on the device(s)")
	fs.StringVar(&b.traceFormat, "trace-format", "text", "trace file format: text (native) or msr (MSR-Cambridge CSV)")
	fs.Float64Var(&b.weight, "weight", 0, "volume scheduling weight under -isolation wfq/reservation (0 = default 1)")
	fs.Float64Var(&b.reservedBps, "reserved-bps", 0, "volume reserved backend bytes/sec under -isolation reservation")
	b.Declare(fs, 1, "single runs")
	return fs
}

func (b *bench) main(args []string) error {
	if err := b.Parse(b.flagSet(), args); err != nil {
		return err
	}
	if b.mixPct < 0 || b.mixPct > 100 {
		return fmt.Errorf("-rwmixwrite %d out of [0, 100]", b.mixPct)
	}
	if (b.weight != 0 || b.reservedBps != 0) && !b.Isolation.Enabled() {
		return errors.New("-weight/-reserved-bps need -isolation wfq or reservation; fifo ignores shares")
	}
	if err := b.parseAxes(); err != nil {
		return err
	}
	stop, err := b.StartProfiles(b.stderr)
	if err != nil {
		return err
	}
	defer stop()
	switch {
	case b.traceFile != "":
		return b.replay()
	case b.sloP99 > 0 || b.sloP999 > 0:
		return b.searchSLO()
	case len(b.rates) > 0:
		return b.openLoop()
	case strings.ContainsRune(b.device+b.rw+b.bs+b.iodepth, ','):
		return b.closedSweep()
	}
	return b.single()
}

// parseAxes parses the comma-list flags and -precondition.
func (b *bench) parseAxes() error {
	var err error
	if b.names, err = cli.List(b.device); err != nil {
		return fmt.Errorf("-device: %w", err)
	}
	if b.patterns, err = cli.ParseList(b.rw, workload.ParsePattern); err != nil {
		return fmt.Errorf("-rw: %w", err)
	}
	if b.sizes, err = cli.ParseList(b.bs, fio.ParseSize); err != nil {
		return fmt.Errorf("-bs: %w", err)
	}
	if b.depths, err = cli.ParseList(b.iodepth, strconv.Atoi); err != nil {
		return fmt.Errorf("-iodepth: %w", err)
	}
	if b.arrivals, err = cli.ParseList(b.arrival, workload.ParseArrival); err != nil {
		return fmt.Errorf("-arrival: %w", err)
	}
	if b.rates, err = parseRates(b.rate); err != nil {
		return fmt.Errorf("-rate: %w", err)
	}
	if b.prep, err = parsePrecond(b.precond); err != nil {
		return fmt.Errorf("-precondition: %w", err)
	}
	return nil
}

// parseRates parses a comma list of open-loop rates. An empty result
// (every value zero) means closed-loop mode; mixing zero and non-zero
// rates is an error.
func parseRates(s string) ([]float64, error) {
	all, err := cli.Floats(s)
	if err != nil {
		return nil, err
	}
	var rates []float64
	for _, r := range all {
		if r > 0 {
			rates = append(rates, r)
		}
	}
	if len(rates) > 0 && len(rates) < len(all) {
		return nil, errors.New("mixes zero (closed loop) and open-loop rates")
	}
	return rates, nil
}

// parsePrecond maps the -precondition flag to a sweep mode; single runs
// apply the same modes through prepare.
func parsePrecond(s string) (essdsim.SweepPrecond, error) {
	switch s {
	case "auto":
		return essdsim.PrecondAuto, nil
	case "full":
		return essdsim.PrecondFull, nil
	case "half":
		return essdsim.PrecondWrites, nil
	case "none":
		return essdsim.PrecondNone, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// window parses -runtime and -warmup, which must leave a measurement
// window: a warmup as long as the run would report no operations.
func (b *bench) window() (run, warm essdsim.Duration, err error) {
	if run, err = fio.ParseDuration(b.runtime); err != nil {
		return 0, 0, fmt.Errorf("-runtime: %w", err)
	}
	if warm, err = fio.ParseDuration(b.warmup); err != nil {
		return 0, 0, fmt.Errorf("-warmup: %w", err)
	}
	if run <= 0 {
		return 0, 0, fmt.Errorf("-runtime must be positive, got %s", b.runtime)
	}
	if warm < 0 || warm >= run {
		return 0, 0, fmt.Errorf("-warmup %s leaves no measurement window in -runtime %s (want 0 <= warmup < runtime)", b.warmup, b.runtime)
	}
	return run, warm, nil
}

// replay runs trace-replay mode: one replay of the -trace file per listed
// device, in parallel, with one summary row per device. MSR-format traces
// are fitted onto each device's scaled geometry.
func (b *bench) replay() error {
	switch {
	case b.jobFile != "":
		return errors.New("-job cannot be combined with -trace replay mode")
	case b.size != "":
		return errors.New("-size cannot be combined with -trace; the trace sets the load")
	case len(b.rates) > 0:
		return errors.New("-rate cannot be combined with -trace; the trace sets the arrival times")
	case b.sloP99 > 0 || b.sloP999 > 0:
		return errors.New("-slo-p99 cannot be combined with -trace replay mode")
	case b.Cache != "":
		return errors.New("-cache is not supported in -trace replay mode")
	case b.Observing():
		return errors.New("-trace-out/-probe-out instrument single runs, not -trace replay mode")
	case strings.ContainsRune(b.rw+b.bs+b.iodepth+b.arrival, ','):
		return errors.New("-trace replays ignore workload axes; only -device may be a list")
	}
	recs, err := cli.ReadTrace(b.traceFile, b.traceFormat)
	if err != nil {
		return err
	}
	sw := b.sweep(essdsim.SweepTraceReplay, "essdbench-trace")
	sw.Trace, sw.FitTrace = recs, b.traceFormat == "msr"
	fmt.Fprintf(b.stdout, "trace replay: %d records on %d devices\n", len(recs), len(sw.Devices))
	fmt.Fprintf(b.stdout, "%-8s %10s %12s %11s %9s %8s %11s %11s\n",
		"device", "ops", "bytes", "elapsed", "stretch", "peak-q", "p50", "p99.9")
	return b.runSweep(sw, func(r essdsim.SweepCellResult) {
		s := r.Replay.Lat.Summarize()
		stretch := "n/a"
		if r.Replay.Nominal > 0 {
			stretch = fmt.Sprintf("%.2fx", r.Replay.Stretch)
		}
		fmt.Fprintf(b.stdout, "%-8s %10d %12d %11v %9s %8d %11v %11v\n",
			r.DeviceName, r.Replay.Ops, r.Replay.Bytes, r.Replay.Elapsed,
			stretch, r.Replay.MaxOutstanding, s.P50, s.P999)
	})
}

// searchSLO binary-searches offered rate for the highest rate whose
// steady-state tail latency meets the target, on one device profile.
func (b *bench) searchSLO() error {
	switch {
	case b.jobFile != "":
		return errors.New("-job cannot be combined with -slo-p99 search mode")
	case b.size != "":
		return errors.New("-size cannot be combined with -slo-p99 search mode")
	case len(b.rates) > 0:
		return errors.New("-rate cannot be combined with -slo-p99; the search picks the rates")
	case b.Observing():
		return errors.New("-trace-out/-probe-out instrument single runs, not -slo-p99 search mode")
	case strings.ContainsRune(b.device+b.rw+b.bs+b.arrival+b.iodepth, ','):
		return errors.New("-slo-p99 search mode takes no axis lists: a single device, pattern, size, and arrival")
	case b.ops == 0:
		return errors.New("-ops must be positive: it bounds each probe's length")
	}
	bounds, err := cli.Floats(b.sloRange)
	if err != nil || len(bounds) != 2 || bounds[0] <= 0 || bounds[1] <= bounds[0] {
		return fmt.Errorf("bad -slo-range %q (want min,max with 0 < min < max)", b.sloRange)
	}
	cache, err := b.LoadCache()
	if err != nil {
		return err
	}
	rep, err := essdsim.SearchSLO(context.Background(), essdsim.SLOSearch{
		Device:        b.devices()[0],
		Variant:       b.variant(),
		Pattern:       b.patterns[0],
		BlockSize:     b.sizes[0],
		WriteRatioPct: b.mixPct,
		Arrival:       b.arrivals[0],
		MinRate:       bounds[0],
		MaxRate:       bounds[1],
		Tolerance:     b.sloTol,
		Target: essdsim.SLOTarget{
			P99:  essdsim.Duration(b.sloP99.Nanoseconds()),
			P999: essdsim.Duration(b.sloP999.Nanoseconds()),
		},
		MaxOps:       b.ops * 6, // -ops bounds one probe's nominal length
		Precondition: b.prep,
		Cache:        cache,
		Seed:         b.Seed,
	})
	if err != nil {
		return err
	}
	essdsim.FormatSLOReport(b.stdout, rep)
	return b.SaveCache(cache)
}

// openLoop issues requests on an arrival schedule instead of a closed
// loop, exposing the queueing that Implication #4 is about: one run, or a
// parallel sweep over the comma-listed axes with one row per cell.
func (b *bench) openLoop() error {
	switch {
	case b.jobFile != "":
		return errors.New("-job cannot be combined with -rate (open loop)")
	case b.size != "":
		return errors.New("-size cannot be combined with -rate; use -ops")
	case strings.ContainsRune(b.iodepth, ','):
		return errors.New("-iodepth lists are a closed-loop axis; they cannot be combined with -rate")
	case b.ops == 0:
		return errors.New("-ops must be positive: it is each open-loop run's request count")
	}
	if !strings.ContainsRune(b.device+b.rw+b.bs+b.rate+b.arrival, ',') {
		return b.openOne()
	}
	if b.Observing() {
		return errors.New("-trace-out/-probe-out instrument single runs, not sweeps")
	}
	sw := b.sweep(essdsim.SweepOpen, "essdbench-open")
	sw.Patterns, sw.BlockSizes, sw.WriteRatiosPct = b.patterns, b.sizes, b.writeRatios()
	sw.Arrivals, sw.RatesPerSec, sw.OpenOps = b.arrivals, b.rates, b.ops
	fmt.Fprintf(b.stdout, "open-loop sweep: %d cells on %d devices\n", len(sw.Cells()), len(sw.Devices))
	fmt.Fprintf(b.stdout, "%-8s %-10s %-7s %-8s %9s %11s %11s %11s %8s\n",
		"device", "rw", "bs", "arrival", "rate/s", "MB/s", "p50", "p99.9", "peak-q")
	return b.runSweep(sw, func(r essdsim.SweepCellResult) {
		s := r.Open.Lat.Summarize()
		fmt.Fprintf(b.stdout, "%-8s %-10s %-7s %-8s %9.0f %11.1f %11v %11v %8d\n",
			r.DeviceName, r.Pattern, sizeLabel(r.BlockSize), r.Arrival,
			r.RatePerSec, r.Open.Throughput()/1e6, s.P50, s.P999,
			r.Open.MaxOutstanding)
	})
}

// openOne is a single open-loop run.
func (b *bench) openOne() error {
	if b.Cache != "" {
		return errMemo
	}
	dev, caps, err := b.newDevice()
	if err != nil {
		return err
	}
	spec := essdsim.OpenWorkload{
		Pattern:    b.patterns[0],
		BlockSize:  b.sizes[0],
		WriteRatio: float64(b.mixPct) / 100,
		RatePerSec: b.rates[0],
		Arrival:    b.arrivals[0],
		Count:      b.ops,
		Seed:       b.Seed,
	}
	if err := spec.Validate(dev); err != nil {
		return err
	}
	b.prepare(dev, spec.Pattern)
	res := essdsim.RunOpen(dev, spec)
	s := res.Lat.Summarize()
	fmt.Fprintf(b.stdout, "%s: open-loop %s bs=%s rate=%.0f/s arrivals=%s\n",
		res.Device, spec.Pattern, b.bs, spec.RatePerSec, spec.Arrival)
	fmt.Fprintf(b.stdout, "  ops=%d elapsed=%v peak-outstanding=%d\n",
		res.Ops, res.Elapsed, res.MaxOutstanding)
	fmt.Fprintf(b.stdout, "  lat avg=%v p50=%v p99=%v p99.9=%v max=%v\n",
		s.Mean, s.P50, s.P99, s.P999, s.Max)
	return b.WriteCaptures(caps)
}

// closedSweep runs the cross product of the device, pattern, size, and
// depth lists as a parallel experiment grid, one row per cell.
func (b *bench) closedSweep() error {
	switch {
	case b.jobFile != "":
		return errors.New("-job cannot be combined with comma-list sweep flags")
	case b.size != "":
		return errors.New("-size cannot be combined with comma-list sweep flags; use -runtime")
	case b.Observing():
		return errors.New("-trace-out/-probe-out instrument single runs, not sweeps")
	}
	sw := b.sweep(essdsim.SweepClosed, "essdbench")
	sw.Patterns, sw.BlockSizes, sw.WriteRatiosPct = b.patterns, b.sizes, b.writeRatios()
	sw.QueueDepths = b.depths
	var err error
	if sw.CellDuration, sw.Warmup, err = b.window(); err != nil {
		return err
	}
	if sw.Warmup == 0 {
		sw.Warmup = -1 // explicit -warmup 0: really no warmup, not the default
	}
	fmt.Fprintf(b.stdout, "sweep: %d cells on %d devices\n",
		len(sw.Devices)*len(sw.Patterns)*len(sw.BlockSizes)*len(sw.QueueDepths), len(sw.Devices))
	fmt.Fprintf(b.stdout, "%-8s %-10s %-7s %-4s %11s %11s %11s %11s\n",
		"device", "rw", "bs", "QD", "MB/s", "IOPS", "avg", "p99.9")
	return b.runSweep(sw, func(r essdsim.SweepCellResult) {
		s := r.Res.Lat.Summarize()
		fmt.Fprintf(b.stdout, "%-8s %-10s %-7s %-4d %11.1f %11.0f %11v %11v\n",
			r.DeviceName, r.Pattern, sizeLabel(r.BlockSize), r.QueueDepth,
			r.Res.Throughput()/1e6, r.Res.IOPS(), s.Mean, s.P999)
	})
}

// single runs one closed-loop job from the flags, or every job of -job,
// on one device.
func (b *bench) single() error {
	if b.Cache != "" {
		return errMemo
	}
	var jobs []fio.Job
	if b.jobFile != "" {
		var err error
		if jobs, err = readJobs(b.jobFile); err != nil {
			return err
		}
	} else {
		spec := essdsim.Workload{
			Pattern:    b.patterns[0],
			BlockSize:  b.sizes[0],
			QueueDepth: b.depths[0],
			WriteRatio: float64(b.mixPct) / 100,
			Seed:       b.Seed,
		}
		var err error
		if b.size != "" {
			spec.TotalBytes, err = fio.ParseSize(b.size)
		} else {
			spec.Duration, spec.Warmup, err = b.window()
		}
		if err != nil {
			return err
		}
		jobs = []fio.Job{{Name: "cmdline", Spec: spec}}
	}
	dev, caps, err := b.newDevice()
	if err != nil {
		return err
	}
	// Validate every job before running any: workload.Run panics on a bad
	// spec, and a panic's stack trace is no way to report a flag typo.
	for _, job := range jobs {
		if err := job.Spec.Validate(dev); err != nil {
			return fmt.Errorf("job %s: %w", job.Name, err)
		}
	}
	for _, job := range jobs {
		b.prepare(dev, job.Spec.Pattern)
		fmt.Fprintf(b.stdout, "=== job %s ===\n", job.Name)
		essdsim.FormatWorkloadResult(b.stdout, essdsim.Run(dev, job.Spec))
	}
	return b.WriteCaptures(caps)
}

// readJobs parses a fio job file, which must define at least one job.
func readJobs(path string) ([]fio.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	jobs, err := fio.Parse(f)
	if err == nil && len(jobs) == 0 {
		err = fmt.Errorf("job file %s defines no jobs", path)
	}
	return jobs, err
}

// sweep starts a sweep of the given kind over the -device list, with the
// seed, isolation variant, and preconditioning the flags set.
func (b *bench) sweep(kind essdsim.SweepKind, label string) essdsim.Sweep {
	return essdsim.Sweep{
		Kind:         kind,
		Seed:         b.Seed,
		Label:        label,
		Variant:      b.variant(),
		Devices:      b.devices(),
		Precondition: b.prep,
	}
}

// runSweep runs sw with the -cache file attached, prints one row per cell
// result, then the cache-warm line, and saves the cache.
func (b *bench) runSweep(sw essdsim.Sweep, row func(essdsim.SweepCellResult)) error {
	cache, err := b.LoadCache()
	if err != nil {
		return err
	}
	sw.Cache = cache
	runner := essdsim.SweepRunner{Workers: b.Workers, OnProgress: b.Progress(b.stderr, "sweep")}
	results, err := runner.Run(context.Background(), sw)
	if err != nil {
		return err
	}
	cached := 0
	for _, r := range results {
		row(r)
		if r.Cached {
			cached++
		}
	}
	b.Skipped(b.stdout, "", cached, len(results))
	return b.SaveCache(cache)
}

// writeRatios is the write-ratio axis: the -rwmixwrite percentage when a
// listed pattern is randrw, none otherwise.
func (b *bench) writeRatios() []int {
	for _, p := range b.patterns {
		if p == essdsim.Mixed {
			return []int{b.mixPct}
		}
	}
	return nil
}

// variant keys cache entries for isolated runs: same seeds and arrivals
// as fifo (deltas are pure scheduling effects), distinct entries.
func (b *bench) variant() string {
	if !b.Isolation.Enabled() {
		return ""
	}
	return fmt.Sprintf("iso:%s|w%g|r%g", b.Isolation.Signature(), b.weight, b.reservedBps)
}

// devices is the sweep device axis: the -device profiles with the
// isolation policy and volume QoS share applied.
func (b *bench) devices() []essdsim.NamedFactory {
	return essdsim.ProfileDevicesQoS(b.Isolation, b.weight, b.reservedBps, b.names...)
}

// newDevice builds the single-run device and, when -trace-out or
// -probe-out is set, attaches an observability capture to it; non-elastic
// devices have no backend to observe and are an error.
func (b *bench) newDevice() (essdsim.Device, []*essdsim.ObsCapture, error) {
	dev, err := essdsim.NewDeviceQoS(b.names[0], b.Isolation, b.weight, b.reservedBps, essdsim.NewEngine(), b.Seed)
	if err != nil || !b.Observing() {
		return dev, nil, err
	}
	capture, err := essdsim.InstrumentDevice(dev, b.device, b.ObsConfig())
	return dev, []*essdsim.ObsCapture{capture}, err
}

// prepare preconditions a single-run device the way a sweep cell is.
func (b *bench) prepare(dev essdsim.Device, p essdsim.Pattern) {
	switch b.prep {
	case essdsim.PrecondAuto:
		essdsim.Precondition(dev, p.IsWrite())
	case essdsim.PrecondFull:
		essdsim.Precondition(dev, false)
	case essdsim.PrecondWrites:
		essdsim.Precondition(dev, true)
	}
}

func sizeLabel(bs int64) string {
	switch {
	case bs >= 1<<20 && bs%(1<<20) == 0:
		return fmt.Sprintf("%dm", bs>>20)
	case bs >= 1<<10 && bs%(1<<10) == 0:
		return fmt.Sprintf("%dk", bs>>10)
	default:
		return fmt.Sprintf("%d", bs)
	}
}
