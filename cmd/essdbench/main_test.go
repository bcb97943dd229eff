package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// essdbench runs the command with args split on spaces ("$T" expands to
// dir) and returns its exit status, stdout, and stderr.
func essdbench(dir, args string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(strings.ReplaceAll(args, "$T", dir)), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs essdbench and fails the test unless it exits 0.
func mustRun(t *testing.T, dir, args string) string {
	t.Helper()
	code, out, errOut := essdbench(dir, args)
	if code != 0 {
		t.Fatalf("essdbench %s: exit %d, stderr:\n%s", args, code, errOut)
	}
	return out
}

// TestFlags pins every flag's name, type, and default to
// testdata/flags.txt.
func TestFlags(t *testing.T) {
	var got strings.Builder
	(&bench{}).flagSet().VisitAll(func(f *flag.Flag) {
		typ, _ := flag.UnquoteUsage(f)
		fmt.Fprintf(&got, "-%s %s %q\n", f.Name, typ, f.DefValue)
	})
	want, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flags changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestGolden pins the stdout of every mode: a single closed-loop run, a
// closed sweep, an open-loop sweep, a single open-loop run, an SLO search,
// and an MSR trace replay.
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"single", "-device essd1 -rw randwrite -bs 4k -iodepth 1 -runtime 300ms"},
		{"closed", "-device essd1,ssd -rw randwrite,read -bs 4k,64k -iodepth 1,8 -runtime 150ms -warmup 30ms -workers 2"},
		{"open", "-device gp2,gp2s -rw randwrite -bs 256k -rate 1500,3000 -arrival uniform,bursty -ops 400 -workers 2"},
		{"openone", "-device gp2 -rw randwrite -bs 256k -rate 3000 -arrival bursty -ops 500 -precondition half"},
		{"slo", "-device gp2s -rw randwrite -bs 256k -slo-p99 20ms -slo-range 200,3000 -ops 500"},
		{"msr", "-device essd1,essd2 -trace testdata/msr.csv -trace-format msr -workers 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := mustRun(t, "", tc.args)
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("stdout differs from testdata/%s.golden:\n got:\n%s\nwant:\n%s", tc.name, got, want)
			}
		})
	}
}

// TestRejects checks that every invalid flag or workload combination
// exits 1 with a named diagnostic, before printing any result.
func TestRejects(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "empty.trace"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ args, want string }{
		{"-device nope -rw randwrite -bs 4k", "unknown device"},
		{"-device essd1 -rw bogus -bs 4k", "-rw:"},
		{"-device essd1 -rw randwrite -bs 3k -runtime 300ms", "not a multiple"},
		{"-device essd1 -rw randwrite -bs 4k stray-arg", "unexpected argument"},
		{"-device gp2,gp2s -rw randwrite -bs 256k -rate 1500 -iodepth 1,8", "-iodepth lists"},
		{"-device essd1 -rw randrw -rwmixwrite 150 -bs 4k", "-rwmixwrite"},
		{"-device gp2s -slo-p99 20ms -slo-range 3000,200", "-slo-range"},
		{"-device gp2s -slo-p99 20ms -iodepth 1,8", "no axis lists"},
		{"-device essd1 -trace $T/missing.trace", "no such file"},
		{"-device essd1 -trace testdata/msr.csv -trace-format msr -rate 100", "-rate cannot"},
		{"-device essd1 -trace testdata/msr.csv -trace-format bogus", "unknown format"},
		{"-device essd1 -trace testdata/msr.csv -trace-format msr -cache $T/c.json", "-cache is not supported"},
		{"-device essd1 -rw randread -bs 4k -cache $T/c.json", "never memoized"},
		{"-device essd1 -rw randread -bs 4k -isolation bogus", "bogus"},
		{"-device ssd -rw randread -bs 4k -isolation wfq", "no shared backend"},
		{"-device essd1 -rw randread -bs 4k -weight 2", "-weight"},
		{"-device essd1 -rw randwrite -bs 4k -runtime 300ms -trace-sample 0 -trace-out $T/t.csv", "-trace-sample"},
		{"-device essd1 -rw randwrite -bs 4k -runtime 300ms -probe-out $T/p.csv", "-probe-interval"},
		{"-device gp2,gp2s -rw randwrite -bs 256k -rate 1500 -ops 200 -trace-out $T/t.csv", "not sweeps"},
		// Values that would otherwise run something other than they say.
		{"-device essd1 -runtime 100ms -warmup 200ms", "-warmup"},
		{"-device essd1 -runtime 100ms", "-warmup"},
		{"-device essd1,ssd -runtime 100ms -warmup 200ms", "-warmup"},
		{"-device essd1 -runtime 0", "-runtime"},
		{"-device gp2,gp2s -rw randwrite -bs 256k -rate 1500 -ops 0", "-ops"},
		{"-device gp2s -rw randwrite -bs 256k -slo-p99 20ms -slo-range 200,3000 -ops 0", "-ops"},
		{"-device essd1 -trace $T/empty.trace", "no records"},
		{"-device essd1,ssd -workers -1", "-workers"},
		{"-device essd1 -rw randwrite -bs 4k -rate NaN", "-rate"},
		{"-device essd1 -rw randwrite -bs 4k -rate Inf", "-rate"},
		{"-device gp2s -slo-p99 2ms -slo-range NaN,4000", "-slo-range"},
		{"-device gp2s -slo-p99 2ms -slo-range 100,+Inf", "-slo-range"},
		{"-device gp2s -rw randwrite -bs 256k -slo-p99 20ms -slo-range 50,2000 -slo-tol NaN", "tolerance"},
		{"-device gp2s -rw randwrite -bs 256k -slo-p99 20ms -slo-range 50,2000 -slo-tol -1", "tolerance"},
		{"-device gp2s -rw randwrite -bs 256k -slo-p99 -1ms", "-slo-p99"},
		{"-device gp2s -rw randwrite -bs 256k -slo-p999 -1ms", "-slo-p999"},
		{"-device essd1 -rw randread -bs 4k -weight NaN -isolation wfq", "weight"},
		{"-device essd1 -rw randread -bs 4k -reserved-bps Inf -isolation reservation", "reservation"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			code, out, errOut := essdbench(dir, tc.args)
			if code != 1 || !strings.HasPrefix(errOut, "essdbench: ") || !strings.Contains(errOut, tc.want) {
				t.Errorf("exit %d, stderr %q; want exit 1 and an essdbench: diagnostic naming %q", code, errOut, tc.want)
			}
			if out != "" {
				t.Errorf("rejected run printed %q", out)
			}
		})
	}
}

// TestUsageExits checks the flag-package exit statuses: 0 for -h, 2 for
// an unknown flag.
func TestUsageExits(t *testing.T) {
	if code, _, _ := essdbench("", "-h"); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if code, _, _ := essdbench("", "-bogus"); code != 2 {
		t.Errorf("-bogus: exit %d, want 2", code)
	}
}

// TestSweepCacheWarm runs one open-loop sweep twice through a -cache file:
// the cold pass simulates both cells, the warm pass skips both and prints
// the same rows.
func TestSweepCacheWarm(t *testing.T) {
	dir := t.TempDir()
	args := "-device gp2,gp2s -rw randwrite -bs 256k -rate 1500 -arrival bursty -ops 400 -cache $T/cache.json"
	cold := mustRun(t, dir, args)
	warm := mustRun(t, dir, args)
	if !strings.Contains(cold, "\n0 of 2 cells skipped (cache-warm)\n") {
		t.Errorf("cold pass:\n%s", cold)
	}
	if !strings.Contains(warm, "\n2 of 2 cells skipped (cache-warm)\n") {
		t.Errorf("warm pass:\n%s", warm)
	}
	if strings.ReplaceAll(warm, "2 of 2", "0 of 2") != cold {
		t.Errorf("warm rows differ from cold:\n%s\nvs\n%s", warm, cold)
	}
}

// TestObservabilityOutputs writes a single run's trace CSV and probe JSON
// and checks that tracing leaves stdout unchanged.
func TestObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	args := "-device essd1 -rw randwrite -bs 256k -rate 2000 -ops 600"
	plain := mustRun(t, dir, args)
	traced := mustRun(t, dir, args+" -trace-out $T/trace.csv -probe-out $T/probes.json -probe-interval 2ms")
	if traced != plain {
		t.Errorf("tracing changed stdout:\n%s\nvs\n%s", traced, plain)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "trace.csv"))
	if err != nil || !bytes.Contains(csv, []byte("req,request")) {
		t.Errorf("trace.csv: err %v, no req,request spans", err)
	}
	probes, err := os.ReadFile(filepath.Join(dir, "probes.json"))
	if err != nil || !json.Valid(probes) {
		t.Errorf("probes.json: err %v, valid JSON %v", err, json.Valid(probes))
	}
	code, _, errOut := essdbench(dir, "-device ssd -rw randwrite -runtime 300ms -trace-out $T/ssd.csv")
	if code != 1 || !strings.Contains(errOut, "elastic") {
		t.Errorf("tracing a local SSD: exit %d, stderr %q", code, errOut)
	}
}

// TestIsolatedSingleRun runs one weighted volume under wfq isolation.
func TestIsolatedSingleRun(t *testing.T) {
	out := mustRun(t, "", "-device gp3 -isolation wfq -weight 2 -rw randwrite -bs 4k -runtime 300ms")
	if !strings.HasPrefix(out, "=== job cmdline ===\n") || !strings.Contains(out, "iops=") {
		t.Errorf("no job summary in\n%s", out)
	}
}

// TestProfiles checks that -cpuprofile and -memprofile write profiles.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, dir, "-device essd1 -rw randwrite -bs 4k -runtime 200ms -cpuprofile $T/cpu.pprof -memprofile $T/mem.pprof")
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", name, err)
		}
	}
}
