package scenario

// Observability-plane tests over the neighbor suite: worker determinism
// of the trace/probe exports, byte-identity of measured results with and
// without tracing, and stability of the sampled traces across cache-warm
// re-runs.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"essdsim/internal/expgrid"
	"essdsim/internal/obs"
	"essdsim/internal/sim"
)

// quickObsNeighbor is quickNeighbor with both observability planes on.
func quickObsNeighbor() NeighborSweep {
	s := quickNeighbor()
	s.Obs = &obs.Config{SampleEvery: 32, ProbeInterval: 5 * sim.Millisecond}
	return s
}

func traceCSV(t *testing.T, rep *NeighborReport) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTraceCSV(&buf, rep.Captures); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func probeCSV(t *testing.T, rep *NeighborReport) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteProbesCSV(&buf, rep.Captures); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestNeighborObsWorkerDeterminism pins the tracing plane's determinism
// promise: the sweep's trace CSV, probe CSV, and measured cells are
// byte-identical at 1 worker and at 8.
func TestNeighborObsWorkerDeterminism(t *testing.T) {
	s1 := quickObsNeighbor()
	s1.Workers = 1
	r1, err := RunNeighbor(context.Background(), s1)
	if err != nil {
		t.Fatal(err)
	}
	s8 := quickObsNeighbor()
	s8.Workers = 8
	r8, err := RunNeighbor(context.Background(), s8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Cells, r8.Cells) {
		t.Fatal("observed neighbor cells differ between 1 and 8 workers")
	}
	if tr1, tr8 := traceCSV(t, r1), traceCSV(t, r8); tr1 != tr8 {
		t.Fatal("trace CSV differs between 1 and 8 workers")
	}
	if p1, p8 := probeCSV(t, r1), probeCSV(t, r8); p1 != p8 {
		t.Fatal("probe CSV differs between 1 and 8 workers")
	}
}

// TestNeighborObsByteIdentity is the golden pin of the "tracing never
// perturbs results" contract: the same sweep with observability off and
// on must produce byte-identical FormatNeighbor and WriteNeighborCSV
// output, while the observed run additionally carries spans, probe rows,
// and one explanation per cell.
func TestNeighborObsByteIdentity(t *testing.T) {
	plain, err := RunNeighbor(context.Background(), quickNeighbor())
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunNeighbor(context.Background(), quickObsNeighbor())
	if err != nil {
		t.Fatal(err)
	}

	var plainTbl, tracedTbl bytes.Buffer
	FormatNeighbor(&plainTbl, plain)
	FormatNeighbor(&tracedTbl, traced)
	if plainTbl.String() != tracedTbl.String() {
		t.Fatal("FormatNeighbor output differs between untraced and traced runs")
	}
	var plainCSV, tracedCSV bytes.Buffer
	if err := WriteNeighborCSV(&plainCSV, plain); err != nil {
		t.Fatal(err)
	}
	if err := WriteNeighborCSV(&tracedCSV, traced); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainCSV.Bytes(), tracedCSV.Bytes()) {
		t.Fatal("WriteNeighborCSV output differs between untraced and traced runs")
	}

	if len(traced.Captures) != len(traced.Cells) {
		t.Fatalf("got %d captures for %d cells", len(traced.Captures), len(traced.Cells))
	}
	spans := 0
	for _, cap := range traced.Captures {
		if cap == nil {
			t.Fatal("nil capture")
		}
		spans += len(cap.Tracer.Spans())
		if len(cap.Prober.Series("cluster/debt_bytes")) == 0 {
			t.Fatalf("capture %s collected no probe samples", cap.Label)
		}
	}
	if spans == 0 {
		t.Fatal("traced sweep recorded no spans")
	}
	if len(traced.Explanations) != len(traced.Cells) {
		t.Fatalf("got %d explanations for %d cells", len(traced.Explanations), len(traced.Cells))
	}
	var report bytes.Buffer
	obs.FormatExplanations(&report, traced.Explanations)
	if !strings.Contains(report.String(), "Cliff attribution") {
		t.Fatalf("attribution report missing header:\n%s", report.String())
	}
	for _, e := range traced.Explanations {
		if len(e.Findings) == 0 {
			t.Fatalf("cell %s: explanation with no findings", e.Cell)
		}
	}
}

// TestNeighborObsCacheWarmStability pins two cache interactions: an
// observed run forces fresh simulations even on a warm cache (a cached
// cell would produce no capture) and still yields the same sampled
// traces, and the warm cache keeps serving unobserved runs afterwards.
func TestNeighborObsCacheWarmStability(t *testing.T) {
	cache := expgrid.NewCache(0)
	run := func() (*NeighborReport, string) {
		s := quickObsNeighbor()
		s.Cache = cache
		rep, err := RunNeighbor(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return rep, traceCSV(t, rep)
	}
	r1, tr1 := run()
	if r1.CachedCells != 0 {
		t.Fatalf("cold observed run reported %d cached cells", r1.CachedCells)
	}
	r2, tr2 := run()
	if r2.CachedCells != 0 {
		t.Fatalf("observed re-run served %d cells from cache; ForceRun must bypass reads", r2.CachedCells)
	}
	if tr1 != tr2 {
		t.Fatal("trace CSV differs across cache-warm re-runs")
	}
	if !reflect.DeepEqual(r1.Cells, r2.Cells) {
		t.Fatal("observed cells differ across cache-warm re-runs")
	}

	plain := quickNeighbor()
	plain.Cache = cache
	r3, err := RunNeighbor(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CachedCells != len(r3.Cells) {
		t.Fatalf("unobserved run after observed ones simulated %d of %d cells; observed runs must still refresh the cache",
			len(r3.Cells)-r3.CachedCells, len(r3.Cells))
	}
}

// TestNeighborObsBadConfig rejects a non-positive trace sample rate.
func TestNeighborObsBadConfig(t *testing.T) {
	s := quickNeighbor()
	s.Obs = &obs.Config{SampleEvery: 0}
	if _, err := RunNeighbor(context.Background(), s); err == nil {
		t.Fatal("SampleEvery 0 must be rejected")
	}
}
