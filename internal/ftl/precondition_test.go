package ftl

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"essdsim/internal/flash"
	"essdsim/internal/sim"
)

// ssdGeometry builds an FTL on the ssd profile's geometry (16 GiB of
// 4 KiB pages on 8 channels × 2 dies × 2 planes, 64-page blocks of
// 16 KiB pages; see ssd.DefaultConfig).
func ssdGeometry(t *testing.T) *FTL {
	t.Helper()
	eng := sim.NewEngine()
	fc := flash.Config{
		Channels: 8, DiesPerChannel: 2, PlanesPerDie: 2, PagesPerBlock: 64,
		BlocksPerPlane: 1024, PageSize: 16 << 10,
		ReadLatency: 40 * sim.Microsecond, ProgramLatency: 190 * sim.Microsecond,
		EraseLatency: 3500 * sim.Microsecond, ChannelBW: 1.2e9,
	}
	return New(eng, flash.NewArray(eng, fc, sim.NewRNG(3, 3)), DefaultConfig(16<<30))
}

// addrDiff names the first piece of address state in which a and b differ.
func addrDiff(a, b *FTL) string {
	switch {
	case !slices.Equal(a.mapping, b.mapping):
		return "mapping"
	case !slices.Equal(a.rmap, b.rmap):
		return "rmap"
	case !slices.Equal(a.sbValid, b.sbValid):
		return "sbValid"
	case !slices.Equal(a.sbState, b.sbState):
		return "sbState"
	case !slices.Equal(a.sbErases, b.sbErases):
		return "sbErases"
	case !slices.Equal(a.freeSBs, b.freeSBs):
		return "freeSBs"
	case a.host != b.host:
		return fmt.Sprintf("host %+v vs %+v", a.host, b.host)
	case a.gc != b.gc:
		return fmt.Sprintf("gc %+v vs %+v", a.gc, b.gc)
	case a.counters != b.counters:
		return fmt.Sprintf("counters %+v vs %+v", a.counters, b.counters)
	}
	return ""
}

// TestPreconditionClosedFormMatchesLoop checks that a sequential
// precondition of a pristine FTL, laid out in closed form, leaves exactly
// the address state the per-unit loop does: on the ssd profile, on a small
// geometry at fills ending mid-unit, and at fills ending on a superblock
// boundary (a half and a full fill of 512-slot superblocks).
func TestPreconditionClosedFormMatchesLoop(t *testing.T) {
	small := func(t *testing.T) *FTL { _, f := smallSetup(t, 64, 0.05); return f }
	for _, g := range []struct {
		name  string
		build func(*testing.T) *FTL
	}{{"ssd", ssdGeometry}, {"small", small}} {
		for _, fill := range []float64{0.5, 1, 1.0 / 3, 0.999, 1e-4} {
			t.Run(fmt.Sprintf("%s/%g", g.name, fill), func(t *testing.T) {
				closed, loop := g.build(t), g.build(t)
				defer closed.Release()
				defer loop.Release()
				if !closed.pristine() {
					t.Fatal("a new FTL is not pristine")
				}
				closed.Precondition(fill, false, nil)
				loop.preconditionUnits(int64(fill*float64(loop.userLPNs)), nil)
				if d := addrDiff(closed, loop); d != "" {
					t.Fatalf("closed form and per-unit loop differ in %s", d)
				}
				if closed.pristine() {
					t.Fatal("a preconditioned FTL is still pristine")
				}
			})
		}
	}
	// The small geometry's cases include the ones the closed form must
	// get right at the edges.
	_, f := smallSetup(t, 64, 0.05)
	if n := int64(f.userLPNs / 3); n%int64(f.slotsPerUnit) == 0 {
		t.Errorf("fill 1/3 (%d LPNs) ends on a unit boundary", n)
	}
	if n := f.userLPNs / 2; n%int64(f.slotsPerSB) != 0 {
		t.Errorf("fill 0.5 (%d LPNs) does not end on a superblock boundary", n)
	}
}

// TestPreconditionUsedFTLTakesLoop checks that an FTL that has written a
// page is not treated as pristine, so its precondition runs the per-unit
// loop over the frontier it already opened.
func TestPreconditionUsedFTLTakesLoop(t *testing.T) {
	used := func() *FTL {
		eng, f := smallSetup(t, 64, 0.05)
		f.HostWrite(100, 20, nil)
		f.Flush(func() {})
		eng.Run()
		return f
	}
	a, b := used(), used()
	if a.pristine() {
		t.Fatal("an FTL that drained a host write reads as pristine")
	}
	a.Precondition(0.5, false, nil)
	b.preconditionUnits(b.userLPNs/2, nil)
	if d := addrDiff(a, b); d != "" {
		t.Fatalf("precondition after a host write differs from the per-unit loop in %s", d)
	}
}

// TestPreconditionNonPositiveFillIsNoOp checks that NaN, zero and negative
// fills leave a new FTL exactly as built, on either layout.
func TestPreconditionNonPositiveFillIsNoOp(t *testing.T) {
	_, want := smallSetup(t, 64, 0.05)
	for _, fill := range []float64{math.NaN(), 0, -0.5, math.Inf(-1)} {
		for _, randomized := range []bool{false, true} {
			_, f := smallSetup(t, 64, 0.05)
			f.Precondition(fill, randomized, sim.NewRNG(1, 1))
			if d := addrDiff(f, want); d != "" {
				t.Errorf("Precondition(%v, %v) changed %s", fill, randomized, d)
			}
		}
	}
}
