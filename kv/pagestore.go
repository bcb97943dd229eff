package kv

import (
	"sync"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

// PageStoreConfig parameterizes the update-in-place engine, whose pages
// are the device's blocks.
type PageStoreConfig struct {
	// CachePages is the in-memory page cache capacity: puts that hit the
	// cache skip the read-before-write.
	CachePages int
}

// DefaultPageStoreConfig returns a B-tree-like configuration: a cache
// covering 1/32 of the device's pages.
func DefaultPageStoreConfig(dev blockdev.Device) PageStoreConfig {
	return PageStoreConfig{CachePages: int(dev.Capacity() / int64(dev.BlockSize()) / 32)}
}

// pageSeed drives page placement.
const pageSeed = 1

// PageStore is the update-in-place design: every put reads (on a cache
// miss) and rewrites its key's page at a fixed random device location —
// the 4 KiB random-write pattern that local-SSD lore says to avoid and
// that Observation #3 rehabilitates on ESSDs.
//
// Per-operation state (the read-modify-write pair shares one pooled op
// with a bound completion method) comes from an intrusive free list, so
// the steady-state put path allocates nothing.
type PageStore struct {
	dev       blockdev.Device
	cfg       PageStoreConfig
	pageBytes int64 // the device's block size
	pages     int64

	cache      map[int64]struct{}
	cacheOrder []int64 // FIFO ring: live entries are cacheOrder[cacheHead:]
	cacheHead  int

	inflight int
	barriers []func()
	stats    Stats

	freeOps *pageOp
}

// pageStorePool recycles whole engines across sweep cells, keeping the
// cache map's buckets, the FIFO array, and the op free list warm.
var pageStorePool = sync.Pool{New: func() any { return new(PageStore) }}

// NewPageStore builds the engine over the device, reusing a pooled
// engine's internal structures when one is available. It panics on
// invalid configuration (programming error).
func NewPageStore(dev blockdev.Device, cfg PageStoreConfig) *PageStore {
	if cfg.CachePages < 0 {
		panic("kv: negative cache")
	}
	p := pageStorePool.Get().(*PageStore)
	p.dev = dev
	p.cfg = cfg
	p.pageBytes = int64(dev.BlockSize())
	p.pages = dev.Capacity() / p.pageBytes
	if p.cache == nil {
		p.cache = make(map[int64]struct{})
	} else {
		clear(p.cache)
	}
	p.cacheOrder = p.cacheOrder[:0]
	p.cacheHead = 0
	p.inflight = 0
	p.barriers = p.barriers[:0]
	p.stats = Stats{}
	return p
}

// Release returns the engine to the package pool for reuse by a later
// cell. The engine must be idle and must not be used afterwards.
func (p *PageStore) Release() {
	p.dev = nil
	pageStorePool.Put(p)
}

// Name implements Engine.
func (p *PageStore) Name() string { return "pagestore" }

// Stats implements Engine.
func (p *PageStore) Stats() Stats { return p.stats }

// Device implements Engine.
func (p *PageStore) Device() blockdev.Device { return p.dev }

// pageOf maps a key to its page via a multiplicative hash.
func (p *PageStore) pageOf(key uint64) int64 {
	h := (key ^ pageSeed) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return int64(h % uint64(p.pages))
}

func (p *PageStore) cacheTouch(page int64) (hit bool) {
	if _, ok := p.cache[page]; ok {
		return true
	}
	if p.cfg.CachePages == 0 {
		return false
	}
	for len(p.cacheOrder)-p.cacheHead >= p.cfg.CachePages {
		victim := p.cacheOrder[p.cacheHead]
		p.cacheHead++
		delete(p.cache, victim)
	}
	if p.cacheHead > 0 && p.cacheHead*2 >= len(p.cacheOrder) {
		// Compact the consumed FIFO prefix so the array stays bounded.
		n := copy(p.cacheOrder, p.cacheOrder[p.cacheHead:])
		p.cacheOrder = p.cacheOrder[:n]
		p.cacheHead = 0
	}
	p.cache[page] = struct{}{}
	p.cacheOrder = append(p.cacheOrder, page)
	return false
}

// Put implements Engine: read-modify-write of the key's page, ack on the
// page write's completion (update-in-place durability).
func (p *PageStore) Put(key uint64, valueSize int64, done func()) {
	if valueSize <= 0 {
		panic("kv: value size must be positive")
	}
	if valueSize > p.pageBytes {
		panic("kv: value larger than a page; split keys upstream")
	}
	p.stats.Puts++
	p.stats.UserBytes += valueSize
	page := p.pageOf(key)
	o := p.getOp()
	o.done = done
	o.off = page * p.pageBytes
	if p.cacheTouch(page) {
		o.write()
		return
	}
	// Cache miss: fetch the page before modifying it.
	p.stats.DeviceReads++
	p.stats.DeviceReadBytes += p.pageBytes
	p.inflight++
	o.reading = true
	o.req.Op = blockdev.Read
	o.req.Offset = o.off
	o.req.Size = p.pageBytes
	p.dev.Submit(&o.req)
}

// Get implements Engine: a cache hit answers in memory; a miss reads the
// key's page (and caches it).
func (p *PageStore) Get(key uint64, done func()) {
	p.stats.Gets++
	page := p.pageOf(key)
	if p.cacheTouch(page) {
		p.stats.CacheHits++
		done()
		return
	}
	p.stats.CacheMisses++
	p.stats.DeviceReads++
	p.stats.DeviceReadBytes += p.pageBytes
	p.stats.GetReads++
	p.inflight++
	o := p.getOp()
	o.done = done
	o.off = page * p.pageBytes
	o.reading = true
	o.get = true
	o.req.Op = blockdev.Read
	o.req.Offset = o.off
	o.req.Size = p.pageBytes
	p.dev.Submit(&o.req)
}

// BeginBatch implements Engine. Page-store puts have no deferred
// admission housekeeping, so batching is a no-op.
func (p *PageStore) BeginBatch() {}

// EndBatch implements Engine.
func (p *PageStore) EndBatch() {}

// Barrier implements Engine.
func (p *PageStore) Barrier(done func()) {
	if p.inflight == 0 {
		done()
		return
	}
	p.barriers = append(p.barriers, done)
}

func (p *PageStore) checkBarriers() {
	if p.inflight != 0 || len(p.barriers) == 0 {
		return
	}
	bs := p.barriers
	p.barriers = nil
	for _, b := range bs {
		b()
	}
	if p.barriers == nil {
		p.barriers = bs[:0] // reuse the drained backing array
	}
}

// pageOp is one pooled read-modify-write (or get) in flight, its device
// request's OnComplete bound once at construction.
type pageOp struct {
	p        *PageStore
	done     func()
	off      int64
	reading  bool
	get      bool
	req      blockdev.Request
	nextFree *pageOp
}

func (p *PageStore) getOp() *pageOp {
	o := p.freeOps
	if o != nil {
		p.freeOps = o.nextFree
		o.nextFree = nil
		return o
	}
	o = &pageOp{p: p}
	o.req.OnComplete = o.onComplete
	return o
}

// write submits the page write half of the op.
func (o *pageOp) write() {
	p := o.p
	p.stats.DeviceWrites++
	p.stats.DeviceWriteBytes += p.pageBytes
	p.inflight++
	o.req.Op = blockdev.Write
	o.req.Offset = o.off
	o.req.Size = p.pageBytes
	p.dev.Submit(&o.req)
}

func (o *pageOp) onComplete(_ *blockdev.Request, _ sim.Time) {
	p := o.p
	p.inflight--
	if o.reading && !o.get {
		o.reading = false
		o.write()
		return
	}
	done := o.done
	o.done = nil
	o.reading = false
	o.get = false
	o.nextFree = p.freeOps
	p.freeOps = o
	done()
	p.checkBarriers()
}

var _ Engine = (*PageStore)(nil)
