package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// uctrace runs the command with args split on spaces ("$T" expands to
// dir) and returns its exit status, stdout, and stderr.
func uctrace(dir, args string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(strings.ReplaceAll(args, "$T", dir)), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestGenReplay generates a trace to a file, replays it, and replays an
// MSR trace, pinning both replay summaries.
func TestGenReplay(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ args, golden string }{
		{"gen -rw randwrite -bs 4k -iodepth 8 -ops 300 -o $T/gen.trace", ""},
		{"replay -device essd1 $T/gen.trace", "replay_gen.golden"},
		{"replay -device essd2 -format msr testdata/msr.csv", "replay_msr.golden"},
	} {
		code, out, errOut := uctrace(dir, tc.args)
		if code != 0 {
			t.Fatalf("uctrace %s: exit %d, stderr:\n%s", tc.args, code, errOut)
		}
		if tc.golden == "" {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("uctrace %s:\n got %q\nwant %q", tc.args, out, want)
		}
	}
}

// TestRejects checks that bad input exits non-zero with a diagnostic
// rather than a panic, and that a bad invocation prints the usage.
func TestRejects(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "empty.trace"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"gen -iodepth 0 -ops 10", 1, "uctrace: workload: queue depth 0"},
		{"gen -bs 3k -ops 10", 1, "uctrace: workload: block size 3072"},
		{"gen -ops 0", 1, "uctrace: workload: no stop condition"},
		{"gen -device nope -ops 10", 1, "uctrace: profiles: unknown device"},
		{"replay $T/empty.trace", 1, "uctrace: trace " + dir + "/empty.trace has no records"},
		{"replay -format bogus testdata/msr.csv", 1, "uctrace: testdata/msr.csv: trace: unknown format"},
		{"", 1, "usage:"},
		{"bogus", 1, "usage:"},
		{"replay", 1, "usage:"},
		{"gen -bogus", 2, "flag provided but not defined"},
	} {
		code, out, errOut := uctrace(dir, tc.args)
		if code != tc.code || !strings.HasPrefix(errOut, tc.want) || out != "" {
			t.Errorf("uctrace %s: exit %d, stdout %q, stderr %q; want exit %d and stderr starting %q",
				tc.args, code, out, errOut, tc.code, tc.want)
		}
	}
}
