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
	"fmt"
	"io"
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
	fs := cli.NewFlagSet("uccontract", stderr)
	var (
		device  = fs.String("device", "essd1", "ESSD profile to check: "+strings.Join(profiles.Names(), ", "))
		quick   = fs.Bool("quick", false, "reduced grids for a fast pass")
		seed    = fs.Uint64("seed", 11, "deterministic seed")
		jsonOut = fs.Bool("json", false, "emit the report as JSON")
		mult    = fs.Float64("capmult", 3, "sustained-write volume in capacity multiples")
	)
	if err := cli.Parse(fs, args); err != nil {
		return false, err
	}
	// The experiment cells build devices through factories that cannot
	// return an error, so reject an unknown profile before any cell runs.
	if !slices.Contains(profiles.Names(), *device) {
		return false, fmt.Errorf("unknown device %q (want %s)", *device, strings.Join(profiles.Names(), ", "))
	}
	mk := func(name string) harness.Factory {
		return func(s uint64) blockdev.Device {
			d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(*seed^s, s+1))
			if err != nil {
				panic(err) // the name was checked above
			}
			return d
		}
	}
	opts := contract.EvalOptions{Quick: *quick, CapMultiple: *mult}
	if *quick {
		opts.Harness = harness.Options{
			CellDuration: 150 * sim.Millisecond,
			Warmup:       30 * sim.Millisecond,
			Seed:         *seed,
		}
		if *mult == 3 {
			opts.CapMultiple = 1.6
		}
	} else {
		opts.Harness = harness.Options{Seed: *seed}
	}

	report := contract.Evaluate(mk(*device), mk("ssd"), opts)
	if *jsonOut {
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
