package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// ucexperiments runs the command with args split on spaces ("$T" expands
// to dir) and returns its exit status, stdout, and stderr.
func ucexperiments(dir, args string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(strings.ReplaceAll(args, "$T", dir)), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs ucexperiments and fails the test unless it exits 0.
func mustRun(t *testing.T, dir, args string) (stdout, stderr string) {
	t.Helper()
	code, out, errOut := ucexperiments(dir, args)
	if code != 0 {
		t.Fatalf("ucexperiments %s: exit %d, stderr:\n%s", args, code, errOut)
	}
	return out, errOut
}

// TestFlags pins every flag's name, type, and default to
// testdata/flags.txt.
func TestFlags(t *testing.T) {
	var got strings.Builder
	(&experiments{}).flagSet().VisitAll(func(f *flag.Flag) {
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

// TestQuickAllGolden pins `-exp all -quick` — every table and figure of
// the paper plus every scenario suite — to its recorded stdout and the
// SHA-256 of each -out CSV.
func TestQuickAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every quick suite (~10s)")
	}
	dir := t.TempDir()
	out, _ := mustRun(t, dir, "-exp all -quick -workers 2 -out $T")
	want, err := os.ReadFile("testdata/all_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("stdout differs from testdata/all_quick.golden:\n%s", out)
	}
	var sums strings.Builder
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(data), filepath.Base(name))
	}
	wantSums, err := os.ReadFile("testdata/all_quick_csv.sha256")
	if err != nil {
		t.Fatal(err)
	}
	if sums.String() != string(wantSums) {
		t.Errorf("-out CSVs differ from testdata/all_quick_csv.sha256:\n%s", sums.String())
	}
}

// TestRejects checks that every invalid flag exits 1 with a named
// diagnostic before any suite runs or prints.
func TestRejects(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "empty.trace"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ args, want string }{
		{"-exp kv -kv-engines rocksdb", "rocksdb"},
		{"-exp kv -kv-skews 1.5", "skew 1.5"},
		{"-exp kv -kv-tiers ssd", "no shared backend"},
		{"-exp neighbor -isolation bogus", "isolation policy"},
		{"-exp churn -rebalance bogus", "rebalancer"},
		{"-exp churn -quick -churn-rate -1", "churn rate"},
		{"-exp burst -quick -trace-out $T/t.csv", "not -exp burst"},
		{"-exp neighbor -quick -trace-sample 0 -trace-out $T/t.csv", "-trace-sample"},
		{"-exp neighbor -quick -probe-out $T/p.csv", "-probe-interval"},
		// Input errors that must surface before any suite simulates.
		{"-exp fig5 -quick -out /dev/null/x", "-out"},
		{"-exp neighbor -quick -aggr-trace $T/empty.trace", "no records"},
		{"-exp neighbor -quick -aggr-trace $T/missing.trace", "no such file"},
		{"-exp all -quick -aggr-arrival uniform", "-aggr-arrival"},
		{"-exp all -quick -fleet-policy bogus", "-fleet-policy"},
		{"-exp bogus", "unknown -exp"},
		{"-exp table1 stray", "unexpected argument"},
		// Values that would otherwise run a default silently.
		{"-exp kv -quick -kv-tenants 0", "-kv-tenants"},
		{"-exp kv -quick -kv-rate -5", "-kv-rate"},
		{"-exp kv -quick -kv-rate NaN", "-kv-rate"},
		{"-exp kv -quick -kv-rate Inf", "-kv-rate"},
		{"-exp kv -quick -kv-skews NaN", "-kv-skews"},
		{"-exp kv -quick -kv-skews 0,-Inf", "-kv-skews"},
		{"-exp churn -quick -churn-epochs 0", "-churn-epochs"},
		{"-exp fleet -quick -fleet-tenants 0", "-fleet-tenants"},
		{"-exp fleet -quick -fleet-aggressors -1", "-fleet-aggressors"},
		{"-exp fleet -quick -fleet-backends -1", "-fleet-backends"},
		{"-exp fleet -quick -fleet-slo-p999 0", "-fleet-slo-p999"},
		{"-exp fleet -quick -screen -screen-candidates 0", "-screen-candidates"},
		{"-exp fleet -quick -workers -1", "-workers"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			code, out, errOut := ucexperiments(dir, tc.args)
			if code != 1 || !strings.HasPrefix(errOut, "ucexperiments: ") || !strings.Contains(errOut, tc.want) {
				t.Errorf("exit %d, stderr %q; want exit 1 and a ucexperiments: diagnostic naming %q", code, errOut, tc.want)
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
	if code, _, _ := ucexperiments("", "-h"); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if code, _, _ := ucexperiments("", "-bogus"); code != 2 {
		t.Errorf("-bogus: exit %d, want 2", code)
	}
}

// TestCSVWriteError checks that a -out file that cannot be written is an
// error, not a panic.
func TestCSVWriteError(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "fig5.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := ucexperiments(dir, "-exp fig5 -quick -out $T")
	if code != 1 || !strings.HasPrefix(errOut, "ucexperiments: ") || !strings.Contains(errOut, "fig5.csv") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming fig5.csv", code, errOut)
	}
}

// TestQuickKeepsExplicitFlags checks that -quick shrinks only the flags
// the user left unset.
func TestQuickKeepsExplicitFlags(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-exp kv -quick", "KV tenant mix: 2 tenants"},
		{"-exp kv -quick -kv-tenants 5", "KV tenant mix: 5 tenants"},
		{"-exp churn -quick", "Fleet churn: 4 epochs"},
		{"-exp churn -quick -churn-epochs 5", "Fleet churn: 5 epochs"},
		{"-exp fleet -quick", "Fleet packing: 8 tenants"},
		{"-exp fleet -quick -fleet-tenants 9", "Fleet packing: 9 tenants"},
		{"-exp fleet -quick -fleet-aggressors 3", "aggr02"},
	} {
		if out, _ := mustRun(t, "", tc.args); !strings.Contains(out, tc.want) {
			t.Errorf("%s: no %q in\n%s", tc.args, tc.want, out)
		}
	}
	if out, _ := mustRun(t, "", "-exp fleet -quick"); strings.Contains(out, "aggr02") {
		t.Errorf("-exp fleet -quick placed a third aggressor:\n%s", out)
	}
}

var skippedRE = regexp.MustCompile(`(?m)^(\w+): (\d+) of (\d+) cells skipped \(cache-warm\)$`)

// skipped returns the suite's "N of M cells skipped" counts in out.
func skipped(t *testing.T, out, suite string) (n, m int) {
	t.Helper()
	for _, match := range skippedRE.FindAllStringSubmatch(out, -1) {
		if match[1] == suite {
			n, _ = strconv.Atoi(match[2])
			m, _ = strconv.Atoi(match[3])
			return n, m
		}
	}
	t.Fatalf("no %s cache-warm line in\n%s", suite, out)
	return 0, 0
}

// TestCacheWarm runs each cached suite twice through one -cache file: the
// warm pass must skip every cell and simulate none.
func TestCacheWarm(t *testing.T) {
	for _, tc := range []struct {
		suite string
		cells int // 0: whatever the suite enumerates
	}{
		{"neighbor", 3}, {"fleet", 10}, {"kv", 4}, {"churn", 0}, {"burst", 0}, {"isolation", 0}, {"slo", 0},
	} {
		t.Run(tc.suite, func(t *testing.T) {
			dir := t.TempDir()
			args := "-exp " + tc.suite + " -quick -workers 2 -cache $T/cache.json"
			mustRun(t, dir, args)
			warm, _ := mustRun(t, dir, args)
			if !strings.Contains(warm, ", 0 cells simulated (") {
				t.Errorf("warm pass simulated cells:\n%s", warm)
			}
			if tc.suite == "slo" {
				return
			}
			n, m := skipped(t, warm, tc.suite)
			if n != m || n == 0 || (tc.cells > 0 && n != tc.cells) {
				t.Errorf("warm pass skipped %d of %d cells, want all of %d", n, m, tc.cells)
			}
		})
	}
}

// TestIsolationVariantsCacheSeparately runs the wfq neighbor suite against
// a fifo-filled cache: no fifo entry may serve a wfq cell, and the wfq
// re-run then skips every cell.
func TestIsolationVariantsCacheSeparately(t *testing.T) {
	dir := t.TempDir()
	args := "-exp neighbor -quick -workers 2 -cache $T/cache.json"
	mustRun(t, dir, args)
	for _, want := range []string{"neighbor: 0 of 3", "neighbor: 3 of 3"} {
		if out, _ := mustRun(t, dir, args+" -isolation wfq"); !strings.Contains(out, want+" cells skipped") {
			t.Errorf("wfq pass: no %q in\n%s", want, out)
		}
	}
	if out, _ := mustRun(t, "", "-exp isolation -quick -workers 2"); !strings.Contains(out, "reservation") {
		t.Errorf("isolation comparison lacks the reservation policy:\n%s", out)
	}
	mustRun(t, "", "-exp fleet -quick -workers 2 -isolation wfq")
}

// TestAggressorTraceFit fits the neighbor aggressors from an MSR trace.
func TestAggressorTraceFit(t *testing.T) {
	out, _ := mustRun(t, "", "-exp neighbor -quick -workers 2 -aggr-trace testdata/msr-aggr.csv -aggr-trace-format msr")
	if !strings.Contains(out, "neighbor aggressors fitted from testdata/msr-aggr.csv: ") {
		t.Errorf("no fit line in\n%s", out)
	}
}

// TestScreenLeverage checks that the two-fidelity fleet screen scores at
// least ten candidate placements per placement it simulates.
func TestScreenLeverage(t *testing.T) {
	out, _ := mustRun(t, "", "-exp fleet -quick -workers 2 -screen")
	m := regexp.MustCompile(`fleet screen: (\d+) candidates .* (\d+) simulated`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no screen summary in\n%s", out)
	}
	cands, _ := strconv.Atoi(m[1])
	sims, _ := strconv.Atoi(m[2])
	if sims < 1 || cands < 10*sims {
		t.Errorf("screen scored %d candidates for %d simulations, want >= 10x", cands, sims)
	}
}

// TestCSVOutputs checks the churn and kv suites' -out files.
func TestCSVOutputs(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, dir, "-exp churn -quick -workers 2 -rebalance drain -churn-rate 3 -out $T")
	mustRun(t, dir, "-exp kv -quick -workers 2 -kv-engines lsm -kv-skews 0.99 -kv-value-sizes 4096 -out $T")
	for _, name := range []string{"fleet_churn_epochs.csv", "fleet_churn_events.csv", "kv_cells.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty CSV", name, err)
		}
	}
}

// TestObservability runs the neighbor suite with both observability
// planes, the attribution report, and -v progress, then checks the
// outputs: progress on stderr only, probe series with the cleaner-debt
// gauge, and trace spans that nest on every lane.
func TestObservability(t *testing.T) {
	dir := t.TempDir()
	out, progress := mustRun(t, dir, "-exp neighbor -quick -workers 2 -v -trace-out $T/trace.json -trace-sample 16 "+
		"-probe-out $T/probes.csv -probe-interval 5ms -explain")
	for _, want := range []string{"Cliff attribution", "victim flow limiter engaged"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q", want)
		}
	}
	if !regexp.MustCompile(`neighbor: \d+/\d+ cells.*elapsed`).MatchString(progress) {
		t.Errorf("no -v progress on stderr:\n%s", progress)
	}
	probes, err := os.ReadFile(filepath.Join(dir, "probes.csv"))
	if err != nil || !bytes.Contains(probes, []byte("cluster/debt_bytes")) {
		t.Errorf("probes.csv: err %v, no cluster/debt_bytes series", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph       string
			Pid, Tid int
			Ts, Dur  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	lanes := map[[2]int][][2]float64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			lane := [2]int{e.Pid, e.Tid}
			lanes[lane] = append(lanes[lane], [2]float64{e.Ts, e.Ts + e.Dur})
		}
	}
	if len(lanes) == 0 {
		t.Fatal("no duration events in trace.json")
	}
	for lane, spans := range lanes {
		sort.Slice(spans, func(i, j int) bool {
			return spans[i][0] < spans[j][0] || spans[i][0] == spans[j][0] && spans[i][1] < spans[j][1]
		})
		for i := 1; i < len(spans); i++ {
			prev, cur := spans[i-1], spans[i]
			// Sequential or fully nested; a partial overlap is a bug.
			if cur[0] < prev[1]-1e-6 && cur[1] > prev[1]+1e-6 {
				t.Fatalf("lane %v: span %v partially overlaps %v", lane, cur, prev)
			}
		}
	}
}

// TestProfiles checks that -cpuprofile and -memprofile write profiles.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, dir, "-exp burst -quick -workers 2 -cpuprofile $T/cpu.pprof -memprofile $T/mem.pprof")
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", name, err)
		}
	}
}
