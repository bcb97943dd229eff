package ftl

import (
	"slices"
	"testing"

	"essdsim/internal/sim"
)

// TestPoolResetMatchesFresh checks that reset turns any used state, larger
// or smaller than needed, into exactly the contents of a fresh one.
func TestPoolResetMatchesFresh(t *testing.T) {
	const lpns, slots, pages, buf = 1000, 1200, 300, 64
	var fresh addrState
	fresh.reset(lpns, slots, pages, buf)
	for _, size := range []int{500, 1000, 5000} {
		used := &addrState{
			mapping:  make([]int32, size),
			rmap:     make([]int32, size+size/5),
			bufState: make([]uint8, size),
			pageSeen: make([]uint64, size/256),
			pending:  make([]int64, 7),
		}
		for i := range used.mapping {
			used.mapping[i] = int32(i)
			used.bufState[i] = uint8(i) | bufPending
		}
		for i := range used.rmap {
			used.rmap[i] = int32(i)
		}
		for i := range used.pageSeen {
			used.pageSeen[i] = ^uint64(i)
		}
		used.reset(lpns, slots, pages, buf)
		if !slices.Equal(used.mapping, fresh.mapping) || !slices.Equal(used.rmap, fresh.rmap) ||
			!slices.Equal(used.bufState, fresh.bufState) || !slices.Equal(used.pageSeen, fresh.pageSeen) ||
			len(used.pending) != len(fresh.pending) {
			t.Fatalf("state of size %d differs from a fresh one after reset", size)
		}
	}
	if fresh.mapping[0] != unmapped || fresh.mapping[lpns-1] != unmapped || fresh.rmap[slots-1] != unmapped {
		t.Fatal("fresh state is not unmapped")
	}
}

// TestPoolReleaseIsFinal checks that a released FTL panics on use instead
// of reading state another FTL may now own, keeps its counters, and
// ignores a second Release.
func TestPoolReleaseIsFinal(t *testing.T) {
	eng, f := smallSetup(t, 16, 0.10)
	f.HostWrite(0, 20, nil)
	eng.Run()
	want := f.Counters()
	f.Release()
	f.Release()
	if f.Counters() != want {
		t.Fatal("counters changed by Release")
	}
	for name, use := range map[string]func(){
		"Mapped":          func() { f.Mapped(0) },
		"InBuffer":        func() { f.InBuffer(0) },
		"HostWrite":       func() { f.HostWrite(0, 1, nil) },
		"Trim":            func() { f.Trim(0, 1) },
		"ReadLPNs":        func() { f.ReadLPNs(0, 1, func() {}) },
		"Precondition":    func() { f.Precondition(0.5, false, nil) },
		"Utilization":     func() { f.Utilization() },
		"FreeSuperblocks": func() { f.FreeSuperblocks() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestRingFIFOAcrossGrowth checks FIFO order while the ring wraps and
// doubles with items queued across its end.
func TestRingFIFOAcrossGrowth(t *testing.T) {
	var r ring[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+3; i++ {
			r.push(next)
			next++
		}
		for i := 0; i < round%5+1 && r.len() > 0; i++ {
			if *r.front() != want {
				t.Fatalf("front %d, want %d", *r.front(), want)
			}
			if got := r.pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for r.len() > 0 {
		if got := r.pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
}

// TestDrainOrderAcrossRingWrap queues far more distinct pages than the
// write buffer holds in one instant, so writes wait behind backpressure
// and the pending ring wraps many times, then checks that every page lands
// where admission order puts it: the i-th page admitted fills the i-th
// slot of the host frontier. A second round overwrites a shuffled subset
// after the first has drained.
func TestDrainOrderAcrossRingWrap(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	rng := sim.NewRNG(21, 22)
	ringCap := len(f.pending.buf)
	frontier := int32(0) // next host slot: superblocks open in index order
	for round, pages := range []int64{16 * int64(ringCap), 5 * int64(ringCap)} {
		// Shuffle whole runs of the first pages, so requests are
		// contiguous but arrive out of LPN order.
		const run = 16
		runs := make([]int64, pages/run)
		for i := range runs {
			runs[i] = int64(i) * run
		}
		for i := len(runs) - 1; i > 0; i-- {
			j := rng.Int64N(int64(i) + 1)
			runs[i], runs[j] = runs[j], runs[i]
		}
		var order []int64 // LPNs in submission order
		var acks []int
		for k, lpn := range runs {
			// Split each run into two requests of random length.
			cut := 1 + rng.Int64N(run-1)
			f.HostWrite(lpn, cut, func() { acks = append(acks, 2*k) })
			f.HostWrite(lpn+cut, run-cut, func() { acks = append(acks, 2*k+1) })
			for p := lpn; p < lpn+run; p++ {
				order = append(order, p)
			}
		}
		if f.waiters.len() < len(runs) {
			t.Fatalf("round %d: only %d of %d requests waiting; backpressure never engaged",
				round, f.waiters.len(), 2*len(runs))
		}
		flushed := false
		f.Flush(func() { flushed = true })
		eng.Run()
		if !flushed || len(acks) != 2*len(runs) {
			t.Fatalf("round %d: flushed %v, %d of %d acks", round, flushed, len(acks), 2*len(runs))
		}
		for i, a := range acks {
			if a != i {
				t.Fatalf("round %d: ack %d was request %d; acks out of FIFO order", round, i, a)
			}
		}
		for i, lpn := range order {
			if want := frontier + int32(i); f.mapping[lpn] != want {
				t.Fatalf("round %d: LPN %d (admitted %d-th) at slot %d, want %d",
					round, lpn, i, f.mapping[lpn], want)
			}
		}
		// The flushed tail unit consumed a whole unit of slots.
		units := (int32(len(order)) + int32(f.slotsPerUnit) - 1) / int32(f.slotsPerUnit)
		frontier += units * int32(f.slotsPerUnit)
		checkIntegrity(t, f)
	}
	if len(f.pending.buf) != ringCap {
		t.Fatalf("pending ring grew from %d to %d slots past its bound", ringCap, len(f.pending.buf))
	}
	if f.Counters().GCVictims != 0 {
		t.Fatal("GC ran; the expected layout assumes host-frontier placement only")
	}
}
