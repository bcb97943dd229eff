package ftl

import "sync"

// addrState is the capacity-sized part of an FTL: the LPN map, its
// reverse map, the per-LPN buffer flags, ReadList's per-page bitmap and
// the pending-page ring's storage. At the ssd profile's capacity that is about 38 MiB, which a
// fresh allocation pays for in page faults and -1 fills on every
// experiment cell, so Release hands it to statePool and New takes it
// back, reset to exactly the contents a fresh allocation gets.
type addrState struct {
	mapping  []int32
	rmap     []int32
	bufState []uint8
	pageSeen []uint64
	pending  []int64
}

var statePool sync.Pool

// acquireState returns address state for userLPNs logical pages, slots
// physical slots in pages flash pages and a pending ring of bufLPNs
// pages, reusing pooled storage where it is large enough.
func acquireState(userLPNs int64, slots, pages, bufLPNs int) *addrState {
	st, _ := statePool.Get().(*addrState)
	if st == nil {
		st = new(addrState)
	}
	st.reset(userLPNs, slots, pages, bufLPNs)
	return st
}

// reset sizes the state and gives it exactly a fresh FTL's contents:
// mapping and rmap all unmapped, bufState and pageSeen all clear. The
// pending storage needs no reset, since the ring that wraps it starts
// empty.
func (st *addrState) reset(userLPNs int64, slots, pages, bufLPNs int) {
	st.mapping = resize(st.mapping, int(userLPNs))
	fillUnmapped(st.mapping)
	st.rmap = resize(st.rmap, slots)
	fillUnmapped(st.rmap)
	st.bufState = resize(st.bufState, int(userLPNs))
	clear(st.bufState)
	st.pageSeen = resize(st.pageSeen, (pages+63)/64)
	clear(st.pageSeen)
	st.pending = resize(st.pending, bufLPNs)
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// fillUnmapped sets every entry of s to unmapped, doubling the filled
// prefix with copy so a multi-MiB map fills at memmove speed.
func fillUnmapped(s []int32) {
	if len(s) == 0 {
		return
	}
	s[0] = unmapped
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// mustLive panics if the FTL was released. Indexed accesses to the
// nil slices panic on their own; summaries over them would read as empty.
func (f *FTL) mustLive() {
	if f.state == nil {
		panic("ftl: FTL used after Release")
	}
}

// Release hands the FTL's capacity-sized address state to a pool for the
// next FTL built, and drops its references to it: any later call that
// touches addresses, buffered pages or superblocks panics instead of
// reading another FTL's state. Counters stays valid. Call it once the
// FTL will serve no more I/O and its simulation engine will run no more
// of its events; calling it again is a no-op.
func (f *FTL) Release() {
	st := f.state
	if st == nil {
		return
	}
	f.state = nil
	f.mapping, f.rmap, f.bufState, f.pageSeen = nil, nil, nil, nil
	f.pending = ring[int64]{}
	f.sbValid, f.sbErases, f.sbState, f.freeSBs = nil, nil, nil, nil
	f.drainBusy = nil
	statePool.Put(st)
}
