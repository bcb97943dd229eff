package slo

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/expgrid"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

func gp2sFactory() expgrid.NamedFactory {
	return expgrid.NamedFactory{Name: "gp2s", New: func(seed uint64) blockdev.Device {
		dev, err := profiles.ByName("gp2s", sim.NewEngine(), sim.NewRNG(seed, seed^0x5c))
		if err != nil {
			panic(err)
		}
		return dev
	}}
}

func testSearch(cache *expgrid.Cache) Search {
	return Search{
		Device:    gp2sFactory(),
		Pattern:   workload.RandWrite,
		BlockSize: 256 << 10,
		Arrival:   workload.Uniform,
		MinRate:   200,
		MaxRate:   3000,
		Tolerance: 50,
		Target:    Target{P99: 20 * sim.Millisecond},
		Horizon:   4 * sim.Second,
		Cache:     cache,
		Seed:      7,
	}
}

// TestSearchConvergence asserts the acceptance criterion: each binary
// search converges within ⌈log2(range/tolerance)⌉ midpoint probes, and the
// two SLO-max rates are consistent with the CreditBucket analytic bounds.
func TestSearchConvergence(t *testing.T) {
	s := testSearch(expgrid.NewCache(0))
	rep, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	bound := rep.MaxBisections()
	if rep.Bisections > 2*bound {
		t.Fatalf("search used %d bisections across two predicates, bound is 2x%d", rep.Bisections, bound)
	}
	// 2 endpoints + at most `bound` midpoints per predicate, shared probes
	// deduplicated.
	if got, max := len(rep.Probes), 2+2*bound; got > max {
		t.Fatalf("search evaluated %d distinct rates, want <= %d", got, max)
	}

	if !rep.Burstable {
		t.Fatal("gp2s should report as burstable")
	}
	if rep.PreBelowRange || rep.PostBelowRange {
		t.Fatalf("20ms p99 should be attainable above the range minimum: %+v", rep)
	}
	if rep.PreRangeCapped {
		t.Fatalf("pre-exhaustion SLO-max should lie inside [%v, %v]", s.MinRate, s.MaxRate)
	}
	if rep.PostMaxRate > rep.PreMaxRate+s.Tolerance {
		t.Fatalf("post-cliff SLO-max %.0f/s exceeds pre-exhaustion %.0f/s", rep.PostMaxRate, rep.PreMaxRate)
	}

	// Analytic cross-checks against the credit-bucket parameters the probe
	// inspected: b = baseline, B = burst ceiling, C = initial bank.
	b, B, C := rep.BaselineBps, rep.BurstBps, rep.InitialCredits
	if b <= 0 || B <= b || C <= 0 {
		t.Fatalf("implausible credit model: baseline=%v burst=%v bank=%v", b, B, C)
	}
	bs := float64(rep.BlockSize)

	// Pre-exhaustion: while credits last the volume serves at the burst
	// ceiling, so the SLO-max offered rate cannot meaningfully exceed it.
	preOffered := rep.PreMaxRate * bs
	if preOffered > 1.25*B {
		t.Fatalf("pre-exhaustion SLO-max offers %.0f B/s, above burst ceiling %.0f B/s", preOffered, B)
	}

	// Post-cliff: an offered rate is sustainable forever iff its credit
	// drain rate offered*(1-b/B) stays within the earn rate b, i.e.
	// offered <= b*B/(B-b). Rates above that exhaust, but only within the
	// probe horizon when the drain outpaces C/horizon; the measured
	// SLO-max must land between the two.
	sustainable := b * B / (B - b)
	horizonBound := (C/rep.Horizon.Seconds() + b) / (1 - b/B)
	postOffered := rep.PostMaxRate * bs
	if postOffered < 0.75*sustainable {
		t.Fatalf("post-cliff SLO-max offers %.0f B/s, below the analytic sustainable rate %.0f B/s", postOffered, sustainable)
	}
	if postOffered > 1.5*horizonBound {
		t.Fatalf("post-cliff SLO-max offers %.0f B/s, above the horizon drain bound %.0f B/s", postOffered, horizonBound)
	}
}

// TestSearchWarmRunByteIdentical asserts that a cache-warm repeat of a
// search executes zero new cells and serializes to byte-identical CSV.
func TestSearchWarmRunByteIdentical(t *testing.T) {
	cache := expgrid.NewCache(0)
	cold, err := Run(context.Background(), testSearch(cache))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CellsRun != len(cold.Probes) {
		t.Fatalf("cold run: %d of %d probes simulated", cold.CellsRun, len(cold.Probes))
	}
	warm, err := Run(context.Background(), testSearch(cache))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CellsRun != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", warm.CellsRun)
	}
	for _, p := range warm.Probes {
		if !p.Cached {
			t.Fatalf("warm probe at %.0f/s not marked cached", p.RatePerSec)
		}
	}
	assertSameCSV(t, cold, warm)
}

// TestSearchCachePersistence asserts the cache survives a process restart:
// a search against a cache loaded from the JSON file written by the cold
// run simulates nothing and reproduces the CSV byte for byte.
func TestSearchCachePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweepcache.json")
	cache := expgrid.NewCache(0)
	cold, err := Run(context.Background(), testSearch(cache))
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	reloaded := expgrid.NewCache(0)
	if err := reloaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != cache.Len() {
		t.Fatalf("reloaded cache has %d entries, want %d", reloaded.Len(), cache.Len())
	}
	warm, err := Run(context.Background(), testSearch(reloaded))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CellsRun != 0 {
		t.Fatalf("restart-warm run simulated %d cells, want 0", warm.CellsRun)
	}
	assertSameCSV(t, cold, warm)

	// Saving the reloaded cache reproduces the file byte for byte.
	var a, b bytes.Buffer
	if err := cache.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := reloaded.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cache file not byte-identical after a load/save round trip")
	}
}

func assertSameCSV(t *testing.T, a, b *Report) {
	t.Helper()
	var ca, cb bytes.Buffer
	if err := WriteProbesCSV(&ca, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteProbesCSV(&cb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatalf("probe CSV differs between runs:\n--- a ---\n%s\n--- b ---\n%s", ca.String(), cb.String())
	}
}

// TestSearchValidate covers the declarative error paths.
func TestSearchValidate(t *testing.T) {
	if _, err := Run(context.Background(), Search{}); err == nil {
		t.Fatal("want error for missing device factory")
	}
	s := Search{Device: gp2sFactory()}
	if _, err := Run(context.Background(), s); err == nil {
		t.Fatal("want error for missing target")
	}
	s.Target = Target{P99: sim.Millisecond}
	s.MinRate, s.MaxRate = 100, 100
	if _, err := Run(context.Background(), s); err == nil {
		t.Fatal("want error for empty rate range")
	}
	// A tolerance must be a finite non-negative width: NaN would probe
	// only MinRate, and a negative one would silently take the default.
	// Zero means the default.
	s.MinRate, s.MaxRate = 100, 4000
	for _, tol := range []float64{math.NaN(), math.Inf(1), -1} {
		s.Tolerance = tol
		if _, err := Run(context.Background(), s); err == nil || !strings.Contains(err.Error(), "tolerance") {
			t.Errorf("tolerance %v: err %v, want a tolerance error", tol, err)
		}
	}
	s.Tolerance = 0
	if err := s.Validate(); err != nil {
		t.Errorf("zero (default) tolerance rejected: %v", err)
	}
}
