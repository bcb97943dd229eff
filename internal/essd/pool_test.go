package essd

import (
	"slices"
	"sync"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

// poolRun drives a mixed stream on a fresh, half-preconditioned volume
// (writes and reads that cross chunk boundaries, reads of never-written
// ranges, trims and flushes), releases the volume, and returns every
// request's completion time in submission order.
func poolRun(seed uint64) []sim.Time {
	eng := sim.NewEngine()
	e := New(eng, testConfig(), sim.NewRNG(seed, 9))
	e.Precondition(0.5)
	rng := sim.NewRNG(seed, 10)
	done := make([]sim.Time, 400)
	for i := range done {
		op := [8]blockdev.Op{blockdev.Read, blockdev.Read, blockdev.Read,
			blockdev.Write, blockdev.Write, blockdev.Write, blockdev.Trim, blockdev.Flush}[rng.IntN(8)]
		size := int64(1+rng.IntN(192)) << 12
		off := rng.Int64N((e.Capacity()-size)>>12) << 12
		if op == blockdev.Flush {
			off, size = 0, 0
		}
		eng.At(sim.Time(i)*7*sim.Time(sim.Microsecond), func() {
			e.Submit(&blockdev.Request{Op: op, Offset: off, Size: size,
				OnComplete: func(_ *blockdev.Request, at sim.Time) { done[i] = at }})
		})
	}
	eng.Run()
	e.ReleaseResources()
	return done
}

// poolReference runs seed 1 on op records allocated fresh, the reference
// every reuse run must reproduce.
func poolReference() []sim.Time {
	opPool.Lock()
	opPool.ops, opPool.subs = nil, nil
	opPool.Unlock()
	return poolRun(1)
}

// TestPoolOpsNoResidue checks that op records a released volume hands to
// the next one carry nothing over: after runs of other seeds release their
// records, seed 1 completes every request when it did on fresh records.
func TestPoolOpsNoResidue(t *testing.T) {
	ref := poolReference()
	for seed := uint64(2); seed <= 4; seed++ {
		poolRun(seed)
		opPool.Lock()
		pooled := opPool.ops != nil && opPool.subs != nil
		opPool.Unlock()
		if !pooled {
			t.Fatal("a released volume left no op records in the pool")
		}
		if got := poolRun(1); !slices.Equal(got, ref) {
			t.Fatalf("after releasing seed %d, seed 1 completes differently on pooled op records", seed)
		}
	}
}

// TestPoolOpsNoResidueConcurrent runs the reuse check from several
// goroutines at once, as expgrid workers do, against the serial reference.
func TestPoolOpsNoResidueConcurrent(t *testing.T) {
	ref := poolReference()
	var wg sync.WaitGroup
	for w := uint64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 2; i++ {
				poolRun(10 + w + 4*i)
				if got := poolRun(1); !slices.Equal(got, ref) {
					t.Errorf("worker %d: seed 1 completes differently on pooled op records", w)
				}
			}
		}()
	}
	wg.Wait()
}
