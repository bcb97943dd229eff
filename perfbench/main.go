// Command perfbench is the simulator's benchmark. It runs one named
// workload — a fixed list of expgrid sweeps, built the way the suites
// build them — for a host-time budget, checks every simulated output, and
// prints host-time metrics. The system under test is the simulator
// itself, so every timing is host (wall-clock) time; simulated statistics
// are outputs that must stay byte-identical, never metrics.
//
//	perfbench --workload paper-quick --seed 7 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// reports the per-layer metrics (hook timings, exact counts, the layer
// cost ladder and its shares). The last line of standard output is one
// JSON object; the lines before it print every metric by name and unit.
// See README.md for the workloads, the metric definitions and the
// metric → layer → end-to-end map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose suite outputs are pinned in pinned.go —
// the simulator CLIs' own default.
const defaultSeed = 7

// maxWorkers caps the expgrid pool: the benchmark is one client running
// one sweep at a time on at most nproc workers, and never more than two,
// so the load is comparable across machines of different widths.
const maxWorkers = 2

// Set-up runs at least setupReps times, and on until setupBudget is spent
// (at most maxSetups times); setup_s is the median. Cheap set-ups (tens
// of milliseconds) thus get enough repetitions for a steady median.
const (
	setupReps   = 5
	setupBudget = time.Second
	maxSetups   = 100
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "workload seed (root seed of every sweep)")
	seconds := fs.Float64("seconds", 10, "host seconds of timed passes")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds):
		fmt.Fprintf(stderr, "perfbench: --seconds wants a positive number, got %v\n", *seconds)
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "perfbench: --trace wants 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	workers := min(runtime.NumCPU(), maxWorkers)
	b := &bench{w: w, seed: *seed, workers: workers, budget: time.Duration(*seconds * float64(time.Second))}
	var rep *report
	var err error
	if *traceFlag == 1 {
		rep, err = b.traced(context.Background())
	} else {
		rep, err = b.endToEnd(context.Background())
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// bench is one benchmark run: a workload at a seed, its worker count and
// its host-time budget for timed passes.
type bench struct {
	w       *workloadDef
	seed    uint64
	workers int
	budget  time.Duration

	inst      *instance
	reference []string // per-cell output digests of the first pass
	attempted int
	failed    int
	notes     []string // failed checks, printed before the result
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result: the JSON object printed last, plus the
// human-readable lines before it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines []string
}

func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	enc, _ := json.Marshal(r) // a map of float64s and strings always marshals
	fmt.Fprintln(w, string(enc))
}

func (b *bench) newReport() *report {
	r := &report{Metrics: map[string]metric{}}
	r.lines = append(r.lines, fmt.Sprintf("workload %s (%s), seed %d, %d workers, closed loop, one client",
		b.w.name, b.w.inputs, b.seed, b.workers))
	return r
}

func (b *bench) finish(r *report) *report {
	r.Attempted, r.Failed = b.attempted, b.failed
	r.Correct = b.failed == 0
	for _, n := range b.notes {
		r.lines = append(r.lines, "FAILED CHECK: "+n)
	}
	r.lines = append(r.lines, fmt.Sprintf("cells attempted %d, failed %d (failed_frac %.4g)",
		b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1))))
	return r
}

// fail records a failed output check that cost n cells.
func (b *bench) fail(n int, format string, args ...any) {
	b.failed += n
	if len(b.notes) < 20 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// setup builds the workload's inputs from the seed, validates every sweep,
// and warms the simulator's pools and code paths with the workload's
// warm-up cells. It runs at least reps times, and on until budget is
// spent (at most maxSetups times), and returns the median time and the
// number of set-ups.
func (b *bench) setup(ctx context.Context, reps int, budget time.Duration) (time.Duration, int, error) {
	var times []float64
	start := time.Now()
	for len(times) < reps || (time.Since(start) < budget && len(times) < maxSetups) {
		t0 := time.Now()
		inst, err := b.w.build(b.seed, b.workers)
		if err == nil {
			err = inst.validate()
		}
		if err == nil {
			err = inst.warmUp(ctx)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		b.inst = inst
	}
	return time.Duration(median(times) * float64(time.Second)), len(times), nil
}

// timedPasses runs untraced passes until the budget is spent and at least
// minPasses have run, checking each pass's outputs against the first.
func (b *bench) timedPasses(ctx context.Context, budget time.Duration, minPasses int) []*pass {
	var passes []*pass
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < budget {
		p := b.runPass(ctx, b.workers)
		dropResults(passes)
		passes = append(passes, p)
		if len(passes) >= 2000 {
			break
		}
	}
	return passes
}

// dropResults releases the simulated results of the last pass in passes;
// only the newest pass keeps its results (for the suite cross-check), so
// the heap — and the collector's work — stays the size of one pass.
func dropResults(passes []*pass) {
	if n := len(passes); n > 0 {
		passes[n-1].results = nil
	}
}

// runPass runs one pass and books its cells and output checks.
func (b *bench) runPass(ctx context.Context, workers int) *pass {
	p := runPass(ctx, b.inst, workers)
	b.book(p)
	return p
}

// book counts a pass's cells as attempted and its failed cells: cells of a
// failed sweep, violated conservation or completion rules, and cells whose
// output digest differs from the first pass's.
func (b *bench) book(p *pass) {
	b.attempted += p.attempted
	if p.err != nil {
		b.fail(p.attempted-len(p.digests), "%v", p.err)
	}
	for _, e := range p.checkErrs {
		b.fail(1, "%s", e)
	}
	switch {
	case p.err != nil:
		// The failed sweep's cells are booked above; its missing digests
		// would shift every later cell out of line with the reference.
	case b.reference == nil:
		b.reference = p.digests
	default:
		if n := mismatches(b.reference, p.digests); n > 0 {
			b.fail(n, "%d cells' outputs differ from the first pass", n)
		}
	}
}

// verify runs the workload's suites through their public entry points,
// cross-checks them against the benchmark's own pass, applies the
// seed-independent paper-shape rules, and for the default seed compares
// the suites' CSV/table bytes with the pinned digest.
func (b *bench) verify(ctx context.Context, last *pass, r *report) {
	text, err := b.inst.verify(ctx, b.workers, last.results)
	if err != nil {
		b.fail(last.attempted, "suite cross-check: %v", err)
		return
	}
	r.lines = append(r.lines, fmt.Sprintf("suite output digest %s (%d bytes)", digest(text), len(text)))
	b.checkSuite(text, last.attempted)
	if b.inst.shapes != nil {
		for _, v := range b.inst.shapes(last.results) {
			b.fail(1, "paper shape: %s", v)
		}
	}
}

// checkSuite fails the pass's cells when the suites' output differs from
// the pinned digest (default seed only).
func (b *bench) checkSuite(text []byte, cells int) {
	if err := checkPinned(b.w.name, b.seed, digest(text)); err != nil {
		b.fail(cells, "%v", err)
	}
}

// endToEnd is the --trace 0 run: set-up, timed passes, output checks, and
// the end-to-end metrics.
func (b *bench) endToEnd(ctx context.Context) (*report, error) {
	setup, setups, err := b.setup(ctx, setupReps, setupBudget)
	if err != nil {
		return nil, err
	}
	r := b.newReport()
	passes := b.timedPasses(ctx, b.budget, b.inst.minPasses)
	rss := peakRSSMB()
	b.verify(ctx, passes[len(passes)-1], r)

	var cellMs []float64
	for _, p := range passes {
		for _, c := range p.cells {
			cellMs = append(cellMs, c.total().Seconds()*1e3)
		}
	}
	passS := fastestPassS(passes)
	tailPct := b.w.tailPct
	r.add("sim_ops_per_s", "ops/s", float64(passes[len(passes)-1].ops)/passS)
	r.add("pass_s", "s", passS)
	r.add("cell_ms.p50", "ms", median(fastestCellMs(passes, len(b.reference))))
	r.add("cell_ms.tail", "ms", percentile(cellMs, tailPct))
	r.add("peak_rss_mb", "MB", rss)
	r.add("setup_s", "s", setup.Seconds())
	r.lines = append(r.lines,
		fmt.Sprintf("%d timed passes of %d cells; pass_s is the sum over sweeps of each sweep's fastest host time, sim_ops_per_s a pass's ops over it",
			len(passes), len(b.reference)),
		fmt.Sprintf("cell_ms over %d cells: p50 is the median over cells of each cell's fastest host time; tail is p%g of all cells (%d cells beyond it)",
			len(cellMs), tailPct, int(float64(len(cellMs))*(100-tailPct)/100)),
		fmt.Sprintf("setup_s is the median of %d set-ups", setups))
	r.lines = append(r.lines, sweepLines(b.inst, passes)...)
	return b.finish(r), nil
}

// fastest returns the fastest of a timing's repetitions, which pass_s,
// sim_ops_per_s and cell_ms.p50 report. The benchmark's host is a few
// vCPUs of a shared machine whose speed swings by 20-30% within seconds
// as other tenants come and go; a median of repetitions follows those
// swings from run to run, while the fastest repetition is the least
// disturbed one and follows the program's own cost. A change that slows
// the program slows every repetition, the fastest with it.
func fastest(xs []float64) float64 { return percentile(xs, 0) }

// sweepSeconds returns sweep i's host seconds in every pass that ran it.
func sweepSeconds(passes []*pass, i int) []float64 {
	var ws []float64
	for _, p := range passes {
		if i < len(p.sweepWall) {
			ws = append(ws, p.sweepWall[i].Seconds())
		}
	}
	return ws
}

// fastestPassS is a pass's host seconds built sweep by sweep: the sum
// over sweeps of each sweep's fastest time. A workload whose pass takes
// seconds (paper-quick) thus still repeats shorter units.
func fastestPassS(passes []*pass) float64 {
	var s float64
	for i := range passes[0].sweepWall {
		s += fastest(sweepSeconds(passes, i))
	}
	return s
}

// fastestCellMs returns, for each of a pass's n cells, its fastest host
// milliseconds over the passes that ran every cell.
func fastestCellMs(passes []*pass, n int) []float64 {
	byCell := make([][]float64, n)
	for _, p := range passes {
		if len(p.cells) != n {
			continue
		}
		for i, c := range p.cells {
			byCell[i] = append(byCell[i], c.total().Seconds()*1e3)
		}
	}
	out := make([]float64, n)
	for i, ms := range byCell {
		out[i] = fastest(ms)
	}
	return out
}

// sweepLines prints each sweep's fastest and median host seconds.
func sweepLines(inst *instance, passes []*pass) []string {
	var out []string
	for i, d := range inst.sweeps {
		ws := sweepSeconds(passes, i)
		out = append(out, fmt.Sprintf("  sweep %-22s %4d cells %9.4f s fastest, %9.4f s median",
			d.name, d.cells, fastest(ws), median(ws)))
	}
	return out
}

// peakRSSMB returns the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
