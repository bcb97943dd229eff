// Command uctrace replays block I/O traces against simulated devices and
// generates synthetic traces from fio-style workload parameters.
//
// Replay accepts the native text format (-format text, the default) and
// MSR-Cambridge CSV rows (-format msr); MSR traces are automatically
// fitted onto the scaled simulated device (offsets wrapped and aligned,
// see the trace package's Fit).
//
// Examples:
//
//	uctrace gen -rw randwrite -bs 4k -iodepth 8 -ops 10000 -o trace.txt
//	uctrace replay -device essd1 trace.txt
//	uctrace replay -device essd2 -format msr msr-rows.csv
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"essdsim"
	"essdsim/internal/cli"
	"essdsim/internal/fio"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
)

const usage = `usage:
  uctrace gen -rw <pattern> -bs <size> -iodepth <n> -ops <n> [-device <name>] [-o file]
  uctrace replay -device <name> [-format text|msr] <trace-file>`

// errUsage asks run to print the usage and exit 1.
var errUsage = errors.New("usage")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one uctrace invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	err := errUsage
	if len(args) > 0 && args[0] == "gen" {
		err = gen(args[1:], stdout, stderr)
	} else if len(args) > 0 && args[0] == "replay" {
		err = replay(args[1:], stdout, stderr)
	}
	if err == errUsage {
		fmt.Fprintln(stderr, usage)
		return 1
	}
	return cli.Exit("uctrace", stderr, err)
}

// gen records a synthetic workload's submission times on a reference
// device into a portable trace.
func gen(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("gen", stderr)
	var (
		rw      = fs.String("rw", "randwrite", "pattern")
		bs      = fs.String("bs", "4k", "I/O size")
		iodepth = fs.Int("iodepth", 8, "queue depth")
		ops     = fs.Uint64("ops", 10000, "operations to generate")
		device  = fs.String("device", "essd1", "reference device setting the issue cadence")
		out     = fs.String("o", "", "output file (default stdout)")
		seed    = fs.Uint64("seed", 1, "deterministic seed")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	pattern, err := workload.ParsePattern(*rw)
	if err != nil {
		return err
	}
	blockSize, err := fio.ParseSize(*bs)
	if err != nil {
		return err
	}
	dev, err := essdsim.NewDevice(*device, essdsim.NewEngine(), *seed)
	if err != nil {
		return err
	}
	spec := essdsim.Workload{
		Pattern:    pattern,
		BlockSize:  blockSize,
		QueueDepth: *iodepth,
		MaxOps:     *ops,
		Seed:       *seed,
	}
	if err := spec.Validate(dev); err != nil {
		return err
	}
	essdsim.Precondition(dev, pattern.IsWrite())
	rec := trace.NewRecorder(dev)
	essdsim.Run(rec, spec)
	write := func(w io.Writer) error { return trace.Write(w, rec.Recs) }
	if *out == "" {
		err = write(stdout)
	} else {
		err = cli.WriteFile(*out, write)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "uctrace: wrote %d records\n", len(rec.Recs))
	return nil
}

// replay replays one trace file open-loop on a device and prints its
// summary.
func replay(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("replay", stderr)
	var (
		device  = fs.String("device", "essd1", "device to replay onto")
		seed    = fs.Uint64("seed", 1, "deterministic seed")
		precond = fs.Bool("precondition", true, "fill the device before replay")
		format  = fs.String("format", "text", "trace format: text (native) or msr (MSR-Cambridge CSV)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errUsage
	}
	recs, err := cli.ReadTrace(fs.Arg(0), *format)
	if err != nil {
		return err
	}
	dev, err := essdsim.NewDevice(*device, essdsim.NewEngine(), *seed)
	if err != nil {
		return err
	}
	if *format == "msr" {
		// Foreign traces address production-size volumes; wrap them onto
		// the scaled simulated device.
		recs = trace.Fit(recs, dev.Capacity(), int64(dev.BlockSize()))
	}
	if *precond {
		essdsim.Precondition(dev, false)
	}
	res := trace.Replay(dev, recs)
	s := res.Lat.Summarize()
	stretch := "n/a (instantaneous trace)"
	if res.Nominal > 0 {
		stretch = fmt.Sprintf("%.2fx", res.Stretch)
	}
	fmt.Fprintf(stdout, "%s: replayed %d ops, %d bytes in %v (stretch %s, lag %v, peak queue %d)\n",
		res.Device, res.Ops, res.Bytes, res.Elapsed, stretch, res.Lag, res.MaxOutstanding)
	fmt.Fprintf(stdout, "latency avg=%v p50=%v p99=%v p99.9=%v max=%v\n",
		s.Mean, s.P50, s.P99, s.P999, s.Max)
	return nil
}
