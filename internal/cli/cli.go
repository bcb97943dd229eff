// Package cli is the flag layer the command-line front ends share. The
// flags that essdbench and ucexperiments both take (-seed, -workers,
// -cache, -isolation, -cpuprofile, -memprofile, -trace-out,
// -trace-sample, -probe-out, -probe-interval, -v) are declared and
// validated once, in Flags, together with the plumbing behind them:
// pprof profiling, sweep-cache load/save and its "N of M cells skipped
// (cache-warm)" line, -v progress, and the .json-or-CSV trace and probe
// writers. The helpers every command uses sit beside it: comma-list
// parsing, trace-file reading, writing -out files, and the mapping of a
// command's error onto its exit status, so each command's main is only
// os.Exit(run(args, stdout, stderr)) and no user sees a Go panic.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"essdsim/internal/expgrid"
	"essdsim/internal/obs"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
	"essdsim/internal/trace"
)

// Flags holds the flags essdbench and ucexperiments share. Declare
// registers them and Parse validates them; the exported fields are ready
// to use after Parse.
type Flags struct {
	Seed      uint64
	Workers   int
	Cache     string        // sweep-cache file; "" = no cache
	Isolation qos.Isolation // parsed from -isolation

	isolation     string
	cpuProfile    string
	memProfile    string
	traceOut      string
	traceSample   int
	probeOut      string
	probeInterval time.Duration
	verbose       bool
}

// Declare registers the shared flags on fs. seed is the command's -seed
// default; scope says where -trace-out and -probe-out apply.
func (f *Flags) Declare(fs *flag.FlagSet, seed uint64, scope string) {
	fs.Uint64Var(&f.Seed, "seed", seed, "deterministic seed")
	fs.IntVar(&f.Workers, "workers", 0, "parallel sweep cells (0 = GOMAXPROCS)")
	fs.StringVar(&f.Cache, "cache", "", "sweep-cache JSON file for sweep cells and SLO probes (loaded if present, saved on exit)")
	fs.StringVar(&f.isolation, "isolation", "fifo", "backend QoS isolation policy: fifo, wfq, or reservation")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	fs.StringVar(&f.traceOut, "trace-out", "", scope+": write sampled request traces to this file (.json = Chrome trace events, else CSV)")
	fs.IntVar(&f.traceSample, "trace-sample", 64, "trace every Nth request per volume when tracing is on")
	fs.StringVar(&f.probeOut, "probe-out", "", scope+": write state-probe series to this file (.json or CSV); requires -probe-interval")
	fs.DurationVar(&f.probeInterval, "probe-interval", 0, "simulated-time cadence of state probes (e.g. 10ms)")
	fs.BoolVar(&f.verbose, "v", false, "print per-cell sweep progress (elapsed/ETA, cached counts) to stderr")
}

// Parse parses args with fs, rejects positional arguments, and validates
// the shared flags.
func (f *Flags) Parse(fs *flag.FlagSet, args []string) error {
	if err := Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (%s takes no positional arguments)", fs.Arg(0), fs.Name())
	}
	switch {
	case f.Workers < 0:
		return fmt.Errorf("-workers wants a count >= 0 (0 = GOMAXPROCS), got %d", f.Workers)
	case f.traceSample < 1:
		return fmt.Errorf("-trace-sample wants a positive count, got %d", f.traceSample)
	case f.probeOut != "" && f.probeInterval <= 0:
		return fmt.Errorf("-probe-out requires a positive -probe-interval, got %s", f.probeInterval)
	}
	policy, err := qos.ParseIsolationPolicy(f.isolation)
	f.Isolation = qos.Isolation{Policy: policy}
	return err
}

// Observing reports whether -trace-out or -probe-out asks for output.
func (f *Flags) Observing() bool { return f.traceOut != "" || f.probeOut != "" }

// ObsConfig returns the tracing and probing configuration the flags set.
func (f *Flags) ObsConfig() *obs.Config {
	return &obs.Config{
		SampleEvery:   f.traceSample,
		ProbeInterval: sim.Duration(f.probeInterval.Nanoseconds()),
	}
}

// WriteCaptures writes the captures' sampled spans to -trace-out and their
// probe series to -probe-out (either may be unset): JSON when the path
// ends in .json, the docs/formats.md CSV otherwise.
func (f *Flags) WriteCaptures(caps []*obs.Capture) error {
	for _, out := range []struct {
		path        string
		json, plain func(io.Writer, []*obs.Capture) error
	}{
		{f.traceOut, obs.WriteTraceEvents, obs.WriteTraceCSV},
		{f.probeOut, obs.WriteProbesJSON, obs.WriteProbesCSV},
	} {
		if out.path == "" {
			continue
		}
		write := out.plain
		if strings.HasSuffix(out.path, ".json") {
			write = out.json
		}
		if err := WriteFile(out.path, func(w io.Writer) error { return write(w, caps) }); err != nil {
			return err
		}
	}
	return nil
}

// StartProfiles begins the -cpuprofile profile; the returned stop ends it
// and writes the -memprofile heap snapshot. Defer stop: it runs on error
// paths too. A heap-profile failure is reported on stderr and does not
// change the run's exit status.
func (f *Flags) StartProfiles(stderr io.Writer) (stop func(), err error) {
	var cpuFile *os.File
	if f.cpuProfile != "" {
		if cpuFile, err = os.Create(f.cpuProfile); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.memProfile == "" {
			return
		}
		err := WriteFile(f.memProfile, func(w io.Writer) error {
			runtime.GC() // settle the heap so the snapshot shows live objects
			return pprof.WriteHeapProfile(w)
		})
		if err != nil {
			fmt.Fprintf(stderr, "mem profile: %v\n", err)
		}
	}, nil
}

// LoadCache returns the -cache sweep cache, filled from its file when the
// file exists, or nil when -cache is unset.
func (f *Flags) LoadCache() (*expgrid.Cache, error) {
	if f.Cache == "" {
		return nil, nil
	}
	c := expgrid.NewCache(0)
	if err := c.LoadFile(f.Cache); err != nil {
		return nil, err
	}
	return c, nil
}

// SaveCache writes c back to the -cache file; a nil cache is a no-op.
func (f *Flags) SaveCache(c *expgrid.Cache) error {
	if c == nil {
		return nil
	}
	return c.SaveFile(f.Cache)
}

// Skipped prints "label: N of M cells skipped (cache-warm)" (no prefix
// for an empty label) when -cache is set.
func (f *Flags) Skipped(w io.Writer, label string, cached, total int) {
	if f.Cache == "" {
		return
	}
	if label != "" {
		label += ": "
	}
	fmt.Fprintf(w, "%s%d of %d cells skipped (cache-warm)\n", label, cached, total)
}

// Progress returns the -v per-cell progress callback of one sweep, which
// prints "label: 12/40 cells (3 cached) elapsed 1.2s eta 2.8s" to w (so
// stdout stays machine-comparable), or nil without -v.
func (f *Flags) Progress(w io.Writer, label string) func(expgrid.Progress) {
	if !f.verbose {
		return nil
	}
	return func(p expgrid.Progress) { fmt.Fprintf(w, "%s: %s\n", label, p) }
}

// List splits a comma-separated flag value into its trimmed, non-empty
// items; a list with no items is an error.
func List(s string) ([]string, error) {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}

// ParseList parses every item of a comma-separated flag value with parse.
func ParseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	items, err := List(s)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(items))
	for i, item := range items {
		if out[i], err = parse(item); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Floats parses a comma-separated list of finite numbers.
func Floats(s string) ([]float64, error) {
	return ParseList(s, func(item string) (float64, error) {
		v, err := strconv.ParseFloat(item, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("%q is not a finite number", item)
		}
		return v, err
	})
}

// ReadTrace reads a trace file in the named format ("text" or "msr") and
// rejects a trace with no records.
func ReadTrace(path, format string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := trace.ReadFormat(f, format)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace %s has no records", path)
	}
	return recs, nil
}

// WriteFile creates the file at path, fills it with write, and reports the
// first create, write, or close error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// NewFlagSet returns a command's flag set: parse errors come back from
// Parse instead of exiting, and usage goes to stderr.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// usageError marks a flag-parse error, which the flag package has already
// printed together with the usage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// Parse parses args with fs and marks a parse error for Exit.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

// Exit maps a command's error to its exit status, as flag.ExitOnError and
// a fatal diagnostic would: 0 on success and for -h, 2 for a flag-parse
// error, and otherwise 1 after printing "name: err" to stderr.
func Exit(name string, stderr io.Writer, err error) int {
	var usage usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &usage):
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}
