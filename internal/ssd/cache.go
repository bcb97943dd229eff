package ssd

import (
	"math/bits"
	"sync"
)

// readCache is the prefetcher's read cache. Two bitmaps over the LPN space
// say which LPNs it holds and which of those are ready (read from flash);
// a held LPN that is not ready is in flight, pinned until its readahead
// lands. Checking a 64-page readahead window is then a word or two of bit
// operations, and holding a page allocates nothing.
//
// Eviction is FIFO in insertion order. The order queue may keep LPNs that
// a write or trim dropped since (eviction skips them) and, after a drop
// and re-insert, the same LPN twice, in which case the older entry evicts
// the newer copy early. An in-flight LPN at the head rotates to the back
// and stops eviction, so the cache may hold more than capacity pages
// while readaheads are in flight.
type readCache struct {
	held, ready []uint64 // one bit per LPN; ready is a subset of held
	order       lpnRing
	capacity    int
	st          *cacheState // pooled storage behind held, ready and order
}

// cacheState is a readCache's LPN-sized storage. At the ssd profile's
// capacity the two bitmaps are 1 MiB, so ReleaseResources hands them to
// cachePool for the next SSD built instead of leaving them to the
// collector.
type cacheState struct {
	held, ready []uint64
	order       []int64
}

var cachePool sync.Pool

// init sizes the cache for lpns logical pages, empty, on pooled storage.
func (c *readCache) init(lpns int64, capacity int) {
	st, _ := cachePool.Get().(*cacheState)
	if st == nil {
		st = new(cacheState)
	}
	words := int((lpns + 63) / 64)
	st.held, st.ready = zeroed(st.held, words), zeroed(st.ready, words)
	*c = readCache{held: st.held, ready: st.ready, order: lpnRing{buf: st.order[:cap(st.order)]},
		capacity: capacity, st: st}
}

// zeroed returns b with n words, all zero, reusing its storage when it is
// large enough.
func zeroed(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// release returns the storage to cachePool; any later use panics.
func (c *readCache) release() {
	if c.st == nil {
		return
	}
	c.st.order = c.order.buf
	cachePool.Put(c.st)
	*c = readCache{}
}

func (c *readCache) has(p int64) bool     { return c.held[p>>6]&(1<<(p&63)) != 0 }
func (c *readCache) isReady(p int64) bool { return c.ready[p>>6]&(1<<(p&63)) != 0 }

// setReady marks a held, in-flight LPN read.
func (c *readCache) setReady(p int64) { c.ready[p>>6] |= 1 << (p & 63) }

// insert holds p, not ready, after evicting from the head of the order.
func (c *readCache) insert(p int64) {
	for c.order.n > 0 && c.order.n >= c.capacity {
		v := c.order.pop()
		if !c.has(v) {
			continue // already dropped by a write or trim
		}
		if !c.isReady(v) {
			c.order.push(v) // in flight: pinned
			break
		}
		c.held[v>>6] &^= 1 << (v & 63)
		c.ready[v>>6] &^= 1 << (v & 63)
	}
	c.held[p>>6] |= 1 << (p & 63)
	c.order.push(p)
}

// fill inserts every LPN of [from, end) the cache does not hold, in
// ascending order, and appends them to todo. Each LPN is checked when its
// turn comes, so one evicted by an earlier insert of the same call is
// inserted again.
func (c *readCache) fill(from, end int64, todo []int64) []int64 {
	for p := from; p < end; {
		w := p >> 6
		absent := ^c.held[w] &^ (1<<(p&63) - 1)
		if top := end - w<<6; top < 64 {
			absent &= 1<<top - 1
		}
		if absent == 0 {
			p = (w + 1) << 6
			continue
		}
		p = w<<6 + int64(bits.TrailingZeros64(absent))
		c.insert(p)
		todo = append(todo, p)
		p++
	}
	return todo
}

// drop forgets the ready LPNs of [lpn, lpn+count), as a write or trim of
// them must; in-flight ones stay held.
func (c *readCache) drop(lpn, count int64) {
	end := lpn + count
	for p := lpn; p < end; {
		w := p >> 6
		m := c.ready[w] &^ (1<<(p&63) - 1)
		if top := end - w<<6; top < 64 {
			m &= 1<<top - 1
		}
		c.held[w] &^= m
		c.ready[w] &^= m
		p = (w + 1) << 6
	}
}

// lpnRing is a FIFO of LPNs on a circular buffer that doubles when full.
type lpnRing struct {
	buf     []int64
	head, n int
}

func (r *lpnRing) push(p int64) {
	if r.n == len(r.buf) {
		buf := make([]int64, max(2*len(r.buf), 64))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = p
	r.n++
}

func (r *lpnRing) pop() int64 {
	p := r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return p
}

// inflightIndex maps each in-flight LPN to the readahead reading it: an
// open-addressed table with linear probing, at most half full, whose
// deletes shift later entries back instead of leaving tombstones.
type inflightIndex struct {
	keys  []int64 // LPN+1, or 0 for an empty slot
	vals  []*prefetchOp
	n     int
	shift uint // 64 - log2(len(keys))
}

func (t *inflightIndex) home(p int64) int {
	return int(uint64(p) * 0x9e3779b97f4a7c15 >> t.shift)
}

// get returns the readahead reading p, or nil.
func (t *inflightIndex) get(p int64) *prefetchOp {
	if t.n == 0 {
		return nil
	}
	mask := len(t.keys) - 1
	for i := t.home(p); t.keys[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == p+1 {
			return t.vals[i]
		}
	}
	return nil
}

// put records that pf reads p, which must not be in the table.
func (t *inflightIndex) put(p int64, pf *prefetchOp) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	i := t.home(p)
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i] = p+1, pf
	t.n++
}

// del removes p, which must be in the table.
func (t *inflightIndex) del(p int64) {
	mask := len(t.keys) - 1
	i := t.home(p)
	for t.keys[i] != p+1 {
		i = (i + 1) & mask
	}
	// Shift back each later entry of the probe run whose home slot does
	// not lie cyclically in (i, j], so every entry stays reachable.
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		if h := t.home(t.keys[j] - 1); (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, nil
	t.n--
}

func (t *inflightIndex) grow() {
	keys, vals := t.keys, t.vals
	size := max(2*len(keys), 64)
	t.keys, t.vals, t.n = make([]int64, size), make([]*prefetchOp, size), 0
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, k := range keys {
		if k != 0 {
			t.put(k-1, vals[i])
		}
	}
}
