// Command uccontract runs the unwritten-contract checker against an ESSD
// profile, using the local SSD as the comparison baseline, and prints the
// verdict on all four observations plus the five implications. It exits 2
// when the contract does not hold.
//
// Examples:
//
//	uccontract -device essd1
//	uccontract -device essd2 -quick -json
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"essdsim/internal/blockdev"
	"essdsim/internal/cli"
	"essdsim/internal/contract"
	"essdsim/internal/harness"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one uccontract invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	passed, err := check(args, stdout, stderr)
	if err == nil && !passed {
		return 2
	}
	return cli.Exit("uccontract", stderr, err)
}

// check evaluates the contract and prints the report; passed is the
// verdict.
func check(args []string, stdout, stderr io.Writer) (passed bool, err error) {
	f, err := parse(args, stderr)
	if err != nil {
		return false, err
	}
	mk := func(name string) harness.Factory {
		return func(s uint64) blockdev.Device {
			d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(f.seed^s, s+1))
			if err != nil {
				panic(err) // parse checked the name
			}
			return d
		}
	}
	report := contract.Evaluate(mk(f.device), mk("ssd"), f.opts)
	if f.jsonOut {
		js, err := report.MarshalIndent()
		if err != nil {
			return false, err
		}
		fmt.Fprintln(stdout, string(js))
	} else {
		contract.Format(stdout, report)
		fmt.Fprintln(stdout)
		contract.FormatAdvice(stdout, report)
	}
	return report.Passed(), nil
}

// flags is one parsed and validated uccontract invocation.
type flags struct {
	device  string
	seed    uint64
	jsonOut bool
	opts    contract.EvalOptions
}

// parse reads the flags and resolves them into evaluation options,
// rejecting every bad value before any cell runs: the cells build devices
// through factories that cannot return an error, and contract.Evaluate
// would silently run its default volume for a non-positive -capmult.
func parse(args []string, stderr io.Writer) (flags, error) {
	fs := cli.NewFlagSet("uccontract", stderr)
	var (
		device  = fs.String("device", "essd1", "ESSD profile to check: "+strings.Join(profiles.Names(), ", "))
		quick   = fs.Bool("quick", false, "reduced grids for a fast pass")
		seed    = fs.Uint64("seed", 11, "deterministic seed")
		jsonOut = fs.Bool("json", false, "emit the report as JSON")
		mult    = fs.Float64("capmult", 3, "sustained-write volume in capacity multiples")
	)
	if err := cli.Parse(fs, args); err != nil {
		return flags{}, err
	}
	if !slices.Contains(profiles.Names(), *device) {
		return flags{}, fmt.Errorf("unknown device %q (want %s)", *device, strings.Join(profiles.Names(), ", "))
	}
	if !(*mult > 0) || math.IsInf(*mult, 0) {
		return flags{}, fmt.Errorf("-capmult must be positive and finite, got %v", *mult)
	}
	capmultSet := false
	fs.Visit(func(fl *flag.Flag) { capmultSet = capmultSet || fl.Name == "capmult" })
	opts := contract.EvalOptions{
		Quick:       *quick,
		CapMultiple: *mult,
		Harness:     harness.Options{Seed: *seed},
	}
	if *quick {
		opts.Harness.CellDuration = 150 * sim.Millisecond
		opts.Harness.Warmup = 30 * sim.Millisecond
		// -quick shrinks the sustained write only when -capmult was left
		// at its default: an explicit value, 3 included, is what runs.
		if !capmultSet {
			opts.CapMultiple = 1.6
		}
	}
	return flags{device: *device, seed: *seed, jsonOut: *jsonOut, opts: opts}, nil
}
