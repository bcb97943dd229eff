package ssd

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

// mapCache is the read cache as it was before readCache: a Go map of
// entries plus a FIFO order slice that keeps dropped and duplicate LPNs.
// It stays here as the reference model readCache is fuzzed against.
type mapCache struct {
	cache    map[int64]*mapEntry
	order    []int64
	capacity int
}

type mapEntry struct{ ready bool }

func (m *mapCache) insert(lpn int64) {
	for len(m.order) >= m.capacity {
		victim := m.order[0]
		m.order = m.order[1:]
		e, ok := m.cache[victim]
		if !ok {
			continue // already dropped by a write or trim
		}
		if !e.ready {
			m.order = append(m.order, victim)
			break
		}
		delete(m.cache, victim)
	}
	m.cache[lpn] = &mapEntry{}
	m.order = append(m.order, lpn)
}

func (m *mapCache) prefetch(from, end int64) []int64 {
	var todo []int64
	for p := from; p < end; p++ {
		if _, ok := m.cache[p]; ok {
			continue
		}
		m.insert(p)
		todo = append(todo, p)
	}
	return todo
}

func (m *mapCache) drop(lpn int64) {
	if e, ok := m.cache[lpn]; ok && e.ready {
		delete(m.cache, lpn)
	}
}

// items returns the ring's LPNs, oldest first.
func (r *lpnRing) items() []int64 {
	out := make([]int64, r.n)
	for i := range out {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// cacheOps applies a byte-coded sequence of readaheads, completions, drops
// and lookups to readCache with its inflightIndex and to the map model,
// and reports the first difference: in what a readahead inserts, the
// eviction order (after every op), or which LPNs are held, ready and
// indexed in flight (every 16 ops and at the end). Each op takes three
// bytes, and only the first 256 ops count; the LPN space spans several
// bitmap words.
func cacheOps(capacity uint8, ops []byte) error {
	const lpns = 300
	ops = ops[:min(len(ops), 3*256)]
	c, m := new(readCache), &mapCache{cache: map[int64]*mapEntry{}, capacity: int(capacity%80) + 1}
	c.init(lpns, m.capacity)
	defer c.release()
	var idx inflightIndex
	var inflight []*prefetchOp
	for k := 0; len(ops) >= 3; k, ops = k+1, ops[3:] {
		op, a, b := ops[0], int64(ops[1]), int64(ops[2])
		at := (int64(op>>2)<<8 | a) % lpns
		switch op % 4 {
		case 0: // a readahead of [at, at+depth)
			end := min(at+b%96, lpns)
			got, want := c.fill(at, end, nil), m.prefetch(at, end)
			if !slices.Equal(got, want) {
				return fmt.Errorf("op %d: readahead [%d, %d) inserted %v, model %v", k, at, end, got, want)
			}
			if len(got) > 0 {
				pf := &prefetchOp{lpns: got}
				for _, p := range got {
					idx.put(p, pf)
				}
				inflight = append(inflight, pf)
			}
		case 1: // the completion of an in-flight readahead
			if len(inflight) == 0 {
				continue
			}
			i := int(a) % len(inflight)
			for _, p := range inflight[i].lpns {
				c.setReady(p)
				idx.del(p)
				m.cache[p].ready = true
			}
			inflight = slices.Delete(inflight, i, i+1)
		case 2: // a write or trim of [at, at+count)
			count := min(b%24+1, lpns-at)
			c.drop(at, count)
			for p := at; p < at+count; p++ {
				m.drop(p)
			}
		case 3: // an in-flight lookup at the read path's rate
			for p := at; p < min(at+b%16+1, lpns); p++ {
				if pf := idx.get(p); c.has(p) && !c.isReady(p) && (pf == nil || !slices.Contains(pf.lpns, p)) {
					return fmt.Errorf("op %d: in-flight LPN %d indexed to the wrong readahead", k, p)
				}
			}
		}
		if got := c.order.items(); !slices.Equal(got, m.order) {
			return fmt.Errorf("op %d: eviction order %v, model %v", k, got, m.order)
		}
		if k%16 == 15 || len(ops) < 6 {
			for p := int64(0); p < lpns; p++ {
				e, ok := m.cache[p]
				if c.has(p) != ok || c.isReady(p) != (ok && e.ready) {
					return fmt.Errorf("op %d: LPN %d held/ready %v/%v, model %v/%v", k, p, c.has(p), c.isReady(p), ok, ok && e.ready)
				}
				if pf := idx.get(p); (pf != nil) != (ok && !e.ready) {
					return fmt.Errorf("op %d: LPN %d in-flight index %v, model in flight %v", k, p, pf != nil, ok && !e.ready)
				}
			}
		}
	}
	return nil
}

// FuzzReadCacheMatchesMap checks readCache and inflightIndex against the
// map-and-order-slice cache they replaced, over arbitrary interleavings
// of readaheads, completions, drops and lookups.
func FuzzReadCacheMatchesMap(f *testing.F) {
	rng := sim.NewRNG(31, 7)
	for _, capacity := range []uint8{1, 8, 40, 79} {
		ops := make([]byte, 3*200)
		for i := range ops {
			ops[i] = byte(rng.Int64N(256))
		}
		f.Add(capacity, ops)
	}
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		if err := cacheOps(capacity, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// readResidue leaves pooled read-cache storage dirty: it runs interleaved
// sequential read streams with 4 KiB and 64 KiB reads on an SSD and
// abandons them with readaheads in flight and the cache over capacity,
// then releases the SSD.
func readResidue(t *testing.T, seed uint64) {
	cfg := DefaultConfig(256 << 20)
	cfg.ReadCachePages = 256
	s := New(sim.NewEngine(), cfg, sim.NewRNG(seed, 3))
	s.Precondition(1, false)
	for k := int64(0); k < 3; k++ {
		off, size := (k*40+int64(seed))<<20, int64(4096)<<(4*(k%2))
		var next func(r *blockdev.Request, at sim.Time)
		next = func(r *blockdev.Request, at sim.Time) {
			off += size
			s.Submit(&blockdev.Request{Op: blockdev.Read, Offset: off, Size: size, OnComplete: next})
		}
		for i := 0; i < 4; i++ {
			next(nil, 0)
		}
	}
	runUntil(s.Engine(), sim.Time(3*sim.Millisecond))
	if s.inflight.n == 0 || s.cache.order.n < cfg.ReadCachePages {
		t.Errorf("dirtying run (seed %d) left %d LPNs in flight and %d in the cache order", seed, s.inflight.n, s.cache.order.n)
	}
	s.ReleaseResources()
}

// referenceReads runs a read-path golden scenario on storage from an
// empty pool: two collections drop every pooled item.
func referenceReads() (readScenario, string) {
	sc := readScenarios[slices.IndexFunc(readScenarios, func(sc readScenario) bool { return sc.name == "write_trim_prefetched" })]
	runtime.GC()
	runtime.GC()
	return sc, sc.run()
}

// TestPoolReadCacheNoResidue checks that an SSD built on read-cache
// storage released mid-readahead serves reads exactly like one built from
// an empty pool.
func TestPoolReadCacheNoResidue(t *testing.T) {
	sc, ref := referenceReads()
	for seed := uint64(1); seed <= 3; seed++ {
		readResidue(t, seed)
		if sc.run() != ref {
			t.Fatalf("after releasing an SSD mid-readahead (seed %d), reads differ from an empty pool's", seed)
		}
	}
}

// TestPoolReadCacheNoResidueConcurrent runs the same check from several
// goroutines at once, as expgrid workers do.
func TestPoolReadCacheNoResidueConcurrent(t *testing.T) {
	sc, ref := referenceReads()
	var wg sync.WaitGroup
	for w := uint64(1); w <= 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 2; i++ {
				readResidue(t, w+10*i)
				if sc.run() != ref {
					t.Errorf("worker seed %d: reads after reuse differ from the serial reference", w+10*i)
				}
			}
		}()
	}
	wg.Wait()
}
