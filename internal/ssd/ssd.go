// Package ssd assembles the simulated local NVMe SSD (the paper's Samsung
// 970 Pro stand-in) from the flash array (package flash) and the FTL
// (package ftl), adding the host-facing pieces: a full-duplex host link,
// firmware command processing, a sequential-read prefetcher and read cache.
//
// The behaviours the paper measures on the local SSD all emerge here:
//   - small writes acknowledge from the DRAM write buffer in ~10 µs;
//   - sequential reads hit the prefetch cache and rival write latency;
//   - random reads pay the flash tR on every miss;
//   - sustained writes collapse when GC engages near 90% of capacity
//     written (Fig 3), and max bandwidth depends on the read/write mix
//     through die-time sharing (Fig 5).
package ssd

import (
	"cmp"
	"fmt"
	"slices"

	"essdsim/internal/blockdev"
	"essdsim/internal/flash"
	"essdsim/internal/ftl"
	"essdsim/internal/sim"
)

// Config parameterizes the assembled SSD.
type Config struct {
	Name  string
	Flash flash.Config
	FTL   ftl.Config

	// Prefetcher.
	ReadCachePages  int // capacity of the read cache, in logical pages
	PrefetchDepth   int // logical pages to read ahead of a detected stream
	StreamTableSize int // concurrent sequential streams tracked
}

// DefaultConfig returns the scaled 970 Pro configuration: ~3.5 GB/s reads,
// ~2.7 GB/s sustained writes, ~60 µs 4 KiB random reads, ~10 µs buffered
// writes, with a userCapacity-sized address space.
func DefaultConfig(userCapacity int64) Config {
	return Config{
		Name: "SSD (970 Pro class)",
		Flash: flash.Config{
			Channels:       8,
			DiesPerChannel: 2,
			PlanesPerDie:   2,
			PagesPerBlock:  64,
			BlocksPerPlane: 1024, // informational; FTL sizes superblocks
			PageSize:       16 << 10,
			ReadLatency:    40 * sim.Microsecond,
			ProgramLatency: 190 * sim.Microsecond,
			EraseLatency:   3500 * sim.Microsecond,
			// TLC-like multi-modal program time, mean ≈ 190 µs.
			ProgramDist: sim.Mixture{Components: []sim.Weighted{
				{W: 0.34, D: sim.Const{V: 70 * sim.Microsecond}},
				{W: 0.33, D: sim.Const{V: 160 * sim.Microsecond}},
				{W: 0.33, D: sim.Const{V: 345 * sim.Microsecond}},
			}},
			ChannelBW: 1.2e9,
		},
		FTL:             ftl.DefaultConfig(userCapacity),
		ReadCachePages:  4096,
		PrefetchDepth:   64,
		StreamTableSize: 8,
	}
}

// The host-facing controller, the same for every configuration.
const (
	hostLinkBW    = 3.5e9 // bytes/s in each direction (PCIe is full duplex)
	firmwareSlots = 4     // parallel command contexts in the controller
)

// firmwareLatency is the per-command processing time.
var firmwareLatency = sim.LogNormal{Median: 5 * sim.Microsecond, Sigma: 0.18}

// Counters tallies host-visible SSD activity.
type Counters struct {
	Reads, Writes, Trims, Flushes uint64
	ReadBytes, WriteBytes         int64
	CacheHits, CacheMisses        uint64
	Prefetches                    uint64
}

type stream struct {
	next int64 // expected next LPN
	hits int
	last sim.Time
}

// SSD is the assembled local SSD device. It implements blockdev.Device.
type SSD struct {
	eng *sim.Engine
	cfg Config
	rng *sim.RNG

	arr *flash.Array
	ftl *ftl.FTL

	up, down *sim.Pipe // host->device / device->host
	fw       *sim.Server

	cache    readCache
	inflight inflightIndex // in-flight cache LPN -> its readahead
	misses   []int64       // scratch: one read's cache misses, for ReadList
	streams  []stream

	freeWrites     *writeOp    // recycled write records
	freeReads      *readOp     // recycled read records
	freePrefetches *prefetchOp // recycled readahead records

	counters Counters
}

// New builds the SSD on the engine with its own derived RNG streams.
func New(eng *sim.Engine, cfg Config, rng *sim.RNG) *SSD {
	if rng == nil {
		rng = sim.NewRNG(0x55d, 0x970)
	}
	s := &SSD{eng: eng, cfg: cfg, rng: rng.Derive("ssd:" + cfg.Name)}
	s.arr = flash.NewArray(eng, cfg.Flash, s.rng.Derive("flash"))
	s.ftl = ftl.New(eng, s.arr, cfg.FTL)
	s.up = sim.NewPipe(eng, "hostUp", hostLinkBW)
	s.down = sim.NewPipe(eng, "hostDown", hostLinkBW)
	s.fw = sim.NewServer(eng, "fw", firmwareSlots)
	s.cache.init(s.ftl.UserLPNs(), cfg.ReadCachePages)
	s.streams = make([]stream, cfg.StreamTableSize)
	return s
}

// Name implements blockdev.Device.
func (s *SSD) Name() string { return s.cfg.Name }

// Capacity implements blockdev.Device.
func (s *SSD) Capacity() int64 { return s.cfg.FTL.UserCapacity }

// BlockSize implements blockdev.Device.
func (s *SSD) BlockSize() int { return int(s.cfg.FTL.LogicalPageSize) }

// Engine implements blockdev.Device.
func (s *SSD) Engine() *sim.Engine { return s.eng }

// FTL exposes the translation layer for harness inspection (write
// amplification, GC state, free space).
func (s *SSD) FTL() *ftl.FTL { return s.ftl }

// FlashCounters returns media operation counts.
func (s *SSD) FlashCounters() flash.Counters { return s.arr.Counters() }

// FTLWriteAmp returns the FTL's current write amplification factor.
func (s *SSD) FTLWriteAmp() float64 { return s.ftl.Counters().WriteAmplification() }

// Counters returns host-visible activity counters.
func (s *SSD) Counters() Counters { return s.counters }

// ReleaseResources hands the FTL's capacity-sized address state and the
// read cache's bitmaps to pools for the next SSD built (see
// ftl.FTL.Release); counters and Engine stay readable. The device must
// serve no I/O afterwards, and its engine must run none of its pending
// events: call only once the cell's measurement and inspection are done.
func (s *SSD) ReleaseResources() {
	s.ftl.Release()
	s.cache.release()
}

// Precondition instantly fills fillFrac of the device as if written once
// (sequentially laid out unless randomized).
func (s *SSD) Precondition(fillFrac float64, randomized bool) {
	s.ftl.Precondition(fillFrac, randomized, s.rng.Derive("precondition"))
}

// Submit implements blockdev.Device.
func (s *SSD) Submit(r *blockdev.Request) {
	blockdev.Validate(s, r)
	r.Issued = s.eng.Now()
	switch r.Op {
	case blockdev.Write:
		s.submitWrite(r)
	case blockdev.Read:
		s.submitRead(r)
	case blockdev.Trim:
		s.submitTrim(r)
	case blockdev.Flush:
		s.submitFlush(r)
	default:
		panic(fmt.Sprintf("ssd: unknown op %v", r.Op))
	}
}

func (s *SSD) complete(r *blockdev.Request) {
	if r.OnComplete != nil {
		r.OnComplete(r, s.eng.Now())
	}
}

func (s *SSD) lpnRange(r *blockdev.Request) (lpn, count int64) {
	bs := s.cfg.FTL.LogicalPageSize
	return r.Offset / bs, r.Size / bs
}

func (s *SSD) submitWrite(r *blockdev.Request) {
	s.counters.Writes++
	s.counters.WriteBytes += r.Size
	o := s.freeWrites
	if o != nil {
		s.freeWrites = o.nextFree
		o.nextFree = nil
	} else {
		o = &writeOp{s: s}
		o.fwDone = o.onFirmware
		o.sent = o.onSent
		o.admitted = o.onAdmitted
	}
	o.r = r
	s.fw.Visit(firmwareLatency.Sample(s.rng), o.fwDone)
}

// writeOp carries one host write through firmware, the host link and
// write-buffer admission. Records are recycled through the SSD's free list
// with their stage methods bound once, so a write allocates nothing.
type writeOp struct {
	s        *SSD
	r        *blockdev.Request
	fwDone   func() // bound onFirmware
	sent     func() // bound onSent
	admitted func() // bound onAdmitted
	nextFree *writeOp
}

func (o *writeOp) onFirmware() { o.s.up.Transfer(o.r.Size, o.sent) }

func (o *writeOp) onSent() {
	s := o.s
	lpn, count := s.lpnRange(o.r)
	s.cache.drop(lpn, count) // writes invalidate any cached copies
	s.ftl.HostWrite(lpn, count, o.admitted)
}

// onAdmitted recycles the record, then completes the request, so a
// completion that submits the next write reuses this record.
func (o *writeOp) onAdmitted() {
	s, r := o.s, o.r
	o.r = nil
	o.nextFree = s.freeWrites
	s.freeWrites = o
	s.complete(r)
}

func (s *SSD) submitRead(r *blockdev.Request) {
	s.counters.Reads++
	s.counters.ReadBytes += r.Size
	o := s.freeReads
	if o != nil {
		s.freeReads = o.nextFree
		o.nextFree = nil
	} else {
		o = &readOp{s: s}
		o.fwDone = o.onFirmware
		o.page = o.onPage
		o.sent = o.onSent
	}
	o.r = r
	s.fw.Visit(firmwareLatency.Sample(s.rng), o.fwDone)
}

// readOp carries one host read through firmware, the read cache and flash,
// and the host link. Records are recycled through the SSD's free list with
// their stage methods bound once, so a read allocates nothing.
type readOp struct {
	s        *SSD
	r        *blockdev.Request
	pending  int    // outstanding: the miss list, in-flight pages, the classification guard
	fwDone   func() // bound onFirmware
	page     func() // bound onPage
	sent     func() // bound onSent
	nextFree *readOp
}

// onFirmware classifies the read's pages against the read cache: ready
// pages are hits, in-flight ones wait for their readahead, and the rest go
// to flash in one ReadList.
func (o *readOp) onFirmware() {
	s := o.s
	lpn, count := s.lpnRange(o.r)
	s.detectStream(lpn, count)
	misses := s.misses[:0]
	o.pending = 1 // guard against premature completion while classifying
	for p := lpn; p < lpn+count; p++ {
		switch {
		case !s.cache.has(p):
			s.counters.CacheMisses++
			misses = append(misses, p)
		case s.cache.isReady(p):
			s.counters.CacheHits++
		default:
			// In-flight prefetch: wait for it rather than re-read.
			s.counters.CacheHits++
			o.pending++
			s.inflight.get(p).wait(o, p)
		}
	}
	s.misses = misses
	if len(misses) > 0 {
		o.pending++
		s.ftl.ReadList(misses, o.page)
	}
	o.onPage() // release the classification guard
}

func (o *readOp) onPage() { o.landed(1) }

// landed counts n outstanding items done; the last sends the data to the
// host.
func (o *readOp) landed(n int) {
	if o.pending -= n; o.pending == 0 {
		o.s.down.Transfer(o.r.Size, o.sent)
	}
}

// onSent recycles the record, then completes the request, so a completion
// that submits the next read reuses this record.
func (o *readOp) onSent() {
	s, r := o.s, o.r
	o.r = nil
	o.nextFree = s.freeReads
	s.freeReads = o
	s.complete(r)
}

func (s *SSD) submitTrim(r *blockdev.Request) {
	lpn, count := s.lpnRange(r)
	s.counters.Trims++
	s.fw.Visit(firmwareLatency.Sample(s.rng), func() {
		s.ftl.Trim(lpn, count)
		s.cache.drop(lpn, count)
		s.complete(r)
	})
}

func (s *SSD) submitFlush(r *blockdev.Request) {
	s.counters.Flushes++
	s.fw.Visit(firmwareLatency.Sample(s.rng), func() {
		s.ftl.Flush(func() { s.complete(r) })
	})
}

// detectStream updates the sequential-stream table and triggers readahead
// when a stream is confirmed.
func (s *SSD) detectStream(lpn, count int64) {
	if s.cfg.PrefetchDepth <= 0 || len(s.streams) == 0 {
		return
	}
	now := s.eng.Now()
	oldest, match := 0, -1
	for i := range s.streams {
		if s.streams[i].next == lpn && s.streams[i].hits > 0 {
			match = i
			break
		}
		if s.streams[i].last < s.streams[oldest].last {
			oldest = i
		}
	}
	if match < 0 {
		s.streams[oldest] = stream{next: lpn + count, hits: 1, last: now}
		return
	}
	st := &s.streams[match]
	st.next = lpn + count
	st.hits++
	st.last = now
	if st.hits >= 2 {
		s.prefetch(st.next, int64(s.cfg.PrefetchDepth))
	}
}

// prefetch reads [from, from+depth) into the read cache in the background.
func (s *SSD) prefetch(from, depth int64) {
	pf := s.freePrefetches
	if pf != nil {
		s.freePrefetches = pf.nextFree
		pf.nextFree = nil
	} else {
		pf = &prefetchOp{s: s}
		pf.done = pf.onDone
	}
	pf.lpns = s.cache.fill(from, min(from+depth, s.ftl.UserLPNs()), pf.lpns[:0])
	if len(pf.lpns) == 0 {
		pf.recycle()
		return
	}
	s.counters.Prefetches += uint64(len(pf.lpns))
	// Every in-flight LPN belongs to exactly one readahead: fill inserts
	// only LPNs the cache does not hold, and in-flight LPNs are neither
	// dropped nor evicted.
	for _, p := range pf.lpns {
		s.inflight.put(p, pf)
	}
	s.ftl.ReadList(pf.lpns, pf.done)
}

// prefetchOp is one readahead in flight. Records are recycled through the
// SSD's free list with onDone bound once, and keep their slices' storage.
type prefetchOp struct {
	s        *SSD
	lpns     []int64  // the LPNs it inserted, ascending
	waits    []waiter // reads waiting on those LPNs, in arrival order
	done     func()   // bound onDone
	nextFree *prefetchOp
}

// waiter is one read waiting on pages of one readahead: how many, and the
// highest LPN among them.
type waiter struct {
	r     *readOp
	pages int
	last  int64
}

// wait registers read r on in-flight LPN p. A read classifies its LPNs in
// one ascending pass, so its pages of one readahead form one waiter.
func (pf *prefetchOp) wait(r *readOp, p int64) {
	if n := len(pf.waits); n > 0 && pf.waits[n-1].r == r {
		pf.waits[n-1].pages++
		pf.waits[n-1].last = p
		return
	}
	pf.waits = append(pf.waits, waiter{r: r, pages: 1, last: p})
}

// onDone marks the readahead's pages ready and releases its waiters. A
// read completes on its last page, and reads complete in page order, then
// arrival order, as when each cached page kept its own waiter list.
func (pf *prefetchOp) onDone() {
	s := pf.s
	for _, p := range pf.lpns {
		s.cache.setReady(p)
		s.inflight.del(p)
	}
	slices.SortStableFunc(pf.waits, func(a, b waiter) int { return cmp.Compare(a.last, b.last) })
	for _, w := range pf.waits {
		w.r.landed(w.pages)
	}
	pf.recycle()
}

func (pf *prefetchOp) recycle() {
	s := pf.s
	clear(pf.waits)
	pf.lpns, pf.waits = pf.lpns[:0], pf.waits[:0]
	pf.nextFree = s.freePrefetches
	s.freePrefetches = pf
}

var _ blockdev.Device = (*SSD)(nil)
