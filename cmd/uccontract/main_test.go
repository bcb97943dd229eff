package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"essdsim/internal/contract"
	"essdsim/internal/harness"
	"essdsim/internal/sim"
)

// TestRejects checks the exit statuses of bad invocations: an unknown
// profile or a non-positive or non-finite -capmult is a diagnostic and
// exit 1 before any cell runs, an unknown flag exit 2, and -h exit 0.
func TestRejects(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-device nope -quick", 1, `uccontract: unknown device "nope"`},
		{"-capmult 0", 1, "uccontract: -capmult must be positive and finite, got 0"},
		{"-capmult 0 -quick", 1, "uccontract: -capmult must be positive and finite, got 0"},
		{"-capmult -1.5 -quick", 1, "uccontract: -capmult must be positive and finite, got -1.5"},
		{"-capmult NaN -quick", 1, "uccontract: -capmult must be positive and finite, got NaN"},
		{"-capmult +Inf -quick", 1, "uccontract: -capmult must be positive and finite, got +Inf"},
		{"-bogus", 2, "flag provided but not defined"},
		{"-h", 0, "Usage of uccontract"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || !strings.HasPrefix(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Errorf("uccontract %s: exit %d, stdout %q, stderr %q; want exit %d and stderr starting %q",
				tc.args, code, stdout.String(), stderr.String(), tc.code, tc.want)
		}
	}
}

// TestResolvedOptions pins the evaluation options each invocation runs:
// -quick shortens the cells and, only when -capmult was not given,
// shrinks the sustained write to 1.6x; an explicit -capmult, the
// default 3 included, is what runs.
func TestResolvedOptions(t *testing.T) {
	full := harness.Options{Seed: 11}
	quick := harness.Options{CellDuration: 150 * sim.Millisecond, Warmup: 30 * sim.Millisecond, Seed: 11}
	for _, tc := range []struct {
		args string
		want contract.EvalOptions
	}{
		{"", contract.EvalOptions{Harness: full, CapMultiple: 3}},
		{"-capmult 1.2", contract.EvalOptions{Harness: full, CapMultiple: 1.2}},
		{"-quick", contract.EvalOptions{Harness: quick, CapMultiple: 1.6, Quick: true}},
		{"-quick -capmult 3", contract.EvalOptions{Harness: quick, CapMultiple: 3, Quick: true}},
		{"-capmult 2.5 -quick", contract.EvalOptions{Harness: quick, CapMultiple: 2.5, Quick: true}},
		{"-quick -seed 5", contract.EvalOptions{
			Harness:     harness.Options{CellDuration: 150 * sim.Millisecond, Warmup: 30 * sim.Millisecond, Seed: 5},
			CapMultiple: 1.6, Quick: true,
		}},
	} {
		f, err := parse(strings.Fields(tc.args), io.Discard)
		if err != nil {
			t.Errorf("uccontract %s: %v", tc.args, err)
			continue
		}
		if f.opts != tc.want {
			t.Errorf("uccontract %s: options %+v, want %+v", tc.args, f.opts, tc.want)
		}
	}
}
