package kv

import (
	"fmt"
	"sync"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

// LSMConfig parameterizes the log-structured merge engine.
type LSMConfig struct {
	// MemtableBytes is the in-memory buffer flushed as one L0 table.
	MemtableBytes int64
	// L0CompactTrigger is the number of L0 tables that triggers a
	// compaction into L1.
	L0CompactTrigger int
}

// DefaultLSMConfig returns leveled-compaction parameters in RocksDB's
// ballpark, scaled to simulator-sized devices.
func DefaultLSMConfig() LSMConfig {
	return LSMConfig{
		MemtableBytes:    8 << 20,
		L0CompactTrigger: 4,
	}
}

// The rest of the engine's shape, fixed for every configuration.
const (
	// segmentIOBytes is the I/O size of flush/compaction streams (the
	// large sequential writes LSMs are built around).
	segmentIOBytes = 256 << 10
	// levelFanout is the size ratio between adjacent levels.
	levelFanout = 10
	// overlapFrac is the fraction of an input table's size that must be
	// read from (and rewritten to) the next level during compaction —
	// the source of the design's write amplification.
	overlapFrac = 1.0
	// maxLevels bounds the tree depth.
	maxLevels = 4
	// queueDepth limits concurrent device I/O from flush/compaction.
	queueDepth = 16
)

type level struct {
	tables int
	bytes  int64
}

// waiter is one put stalled on a full memtable chain, admitted FIFO when
// the flush catches up.
type waiter struct {
	size int64
	done func()
}

// LSM is a simplified leveled LSM write path: puts buffer in a memtable,
// memtables flush to L0 as sequential segment writes, and level overflow
// triggers compactions that read and rewrite sequential streams. All
// device traffic is sequential and large — the conversion of random
// writes into sequential writes that Implication #3 re-evaluates.
//
// The hot path is allocation-free: flush/compaction streams, their device
// requests, and get probes all come from intrusive per-engine free lists,
// and completions dispatch through bound methods rather than closures.
type LSM struct {
	dev    blockdev.Device
	cfg    LSMConfig
	ring   ringAllocator
	levels [maxLevels]level

	memUsed   int64
	flushBusy bool
	compBusy  bool
	inflight  int
	waiters   []waiter // puts blocked on a full memtable chain
	barriers  []func()
	stats     Stats

	batchDepth  int // open BeginBatch brackets
	batchAdmits int // admissions whose flush check was deferred

	freeStreams *lsmStream
	freeReqs    *lsmReq
	freeGets    *lsmGet
}

// lsmPool recycles whole engines across sweep cells: a pooled LSM keeps
// its waiter backing array and every free list (whose
// entries point back at this same struct, so no rebinding is needed).
var lsmPool = sync.Pool{New: func() any { return new(LSM) }}

// NewLSM builds the engine over the device, reusing a pooled engine's
// internal structures when one is available. It panics on invalid
// configuration or a device whose block does not divide the segment size
// (programming errors).
func NewLSM(dev blockdev.Device, cfg LSMConfig) *LSM {
	bs := int64(dev.BlockSize())
	if cfg.MemtableBytes <= 0 || cfg.L0CompactTrigger < 1 || segmentIOBytes%bs != 0 {
		panic(fmt.Sprintf("kv: bad LSM config %+v for %d-byte blocks", cfg, bs))
	}
	l := lsmPool.Get().(*LSM)
	l.dev = dev
	l.cfg = cfg
	l.ring = ringAllocator{base: 0, size: dev.Capacity(), bs: bs}
	l.levels = [maxLevels]level{}
	l.memUsed = 0
	l.flushBusy = false
	l.compBusy = false
	l.inflight = 0
	l.waiters = l.waiters[:0]
	l.barriers = l.barriers[:0]
	l.stats = Stats{}
	l.batchDepth = 0
	l.batchAdmits = 0
	return l
}

// Release returns the engine (and its free-listed streams, requests, and
// probe state) to the package pool for reuse by a later cell. The engine
// must be idle and must not be used afterwards.
func (l *LSM) Release() {
	l.dev = nil
	lsmPool.Put(l)
}

// Name implements Engine.
func (l *LSM) Name() string { return "lsm" }

// Stats implements Engine.
func (l *LSM) Stats() Stats { return l.stats }

// Device implements Engine.
func (l *LSM) Device() blockdev.Device { return l.dev }

// Put implements Engine: the put acknowledges on memtable admission
// (writes are durable in the real design via a group-committed WAL that
// shares the log's sequential pattern; we fold it into the flush traffic).
func (l *LSM) Put(key uint64, valueSize int64, done func()) {
	if valueSize <= 0 {
		panic("kv: value size must be positive")
	}
	_ = key // placement is size-driven; keys are opaque
	l.stats.Puts++
	l.stats.UserBytes += valueSize
	if l.memUsed >= 2*l.cfg.MemtableBytes {
		// Memtable and its immutable predecessor are both full: stall the
		// put until flushing catches up (write stalls, as in RocksDB).
		l.stats.Stalls++
		l.waiters = append(l.waiters, waiter{size: valueSize, done: done})
		l.maybeFlush()
		return
	}
	l.admit(valueSize, done)
}

// admit accepts one put into the memtable and acknowledges it. Inside a
// batch the flush-threshold check is deferred to EndBatch: the recursive
// pump this replaces ran each admission's check only after every
// subsequently issued put, so by the time any check ran, issuing had
// stopped and at most the first could start a flush — one check against
// the final memtable size is equivalent.
func (l *LSM) admit(valueSize int64, done func()) {
	l.memUsed += valueSize
	done()
	if l.batchDepth > 0 {
		l.batchAdmits++
		return
	}
	if l.memUsed >= l.cfg.MemtableBytes {
		l.maybeFlush()
	}
}

// BeginBatch implements Engine.
func (l *LSM) BeginBatch() { l.batchDepth++ }

// EndBatch implements Engine.
func (l *LSM) EndBatch() {
	l.batchDepth--
	if l.batchDepth == 0 && l.batchAdmits > 0 {
		l.batchAdmits = 0
		if l.memUsed >= l.cfg.MemtableBytes {
			l.maybeFlush()
		}
	}
}

// Get implements Engine. The simulator models lookup cost, not contents:
// the key hashes to a residence — the memtable with probability
// proportional to its share of stored bytes (a recency proxy), otherwise
// a level chosen weighted by level size. A memtable hit answers in
// memory; a miss probes every L0 table and one fence-guided read per
// deeper non-empty level down to the resident one, as a dependent chain
// of block-sized reads — the read amplification leveled designs pay.
func (l *LSM) Get(key uint64, done func()) {
	l.stats.Gets++
	h := key * 0x9e3779b97f4a7c15
	h ^= h >> 32
	total := l.memUsed
	for _, lv := range l.levels {
		total += lv.bytes
	}
	if total == 0 || int64(h%uint64(total)) < l.memUsed {
		l.stats.CacheHits++
		done()
		return
	}
	l.stats.CacheMisses++
	// Pick the resident level, weighted by level bytes.
	h2 := (h ^ 0xd1b54a32d192ed03) * 0x9e3779b97f4a7c15
	h2 ^= h2 >> 29
	r := int64(h2 % uint64(total-l.memUsed))
	resident := len(l.levels) - 1
	acc := int64(0)
	for i := range l.levels {
		acc += l.levels[i].bytes
		if r < acc {
			resident = i
			break
		}
	}
	probes := 0
	for i := 0; i <= resident; i++ {
		if i == 0 {
			probes += l.levels[0].tables
		} else if l.levels[i].bytes > 0 {
			probes++
		}
	}
	if probes == 0 {
		probes = 1
	}
	g := l.getGet()
	g.done = done
	g.h = h2
	g.left = probes
	g.issue()
}

// Barrier implements Engine.
func (l *LSM) Barrier(done func()) {
	if l.memUsed > 0 {
		l.maybeFlush()
	}
	if l.idle() {
		done()
		return
	}
	l.barriers = append(l.barriers, done)
}

func (l *LSM) idle() bool {
	return !l.flushBusy && !l.compBusy && l.inflight == 0 && l.memUsed == 0
}

func (l *LSM) checkBarriers() {
	if !l.idle() || len(l.barriers) == 0 {
		return
	}
	bs := l.barriers
	l.barriers = nil
	for _, b := range bs {
		b()
	}
	if l.barriers == nil {
		l.barriers = bs[:0] // reuse the drained backing array
	}
}

// maybeFlush starts flushing the memtable to L0 as sequential writes.
func (l *LSM) maybeFlush() {
	if l.flushBusy || l.memUsed == 0 {
		return
	}
	l.flushBusy = true
	l.stats.Flushes++
	bytes := l.memUsed
	if bytes > l.cfg.MemtableBytes {
		bytes = l.cfg.MemtableBytes
	}
	l.memUsed -= bytes
	table := align(bytes, int64(l.dev.BlockSize()))
	l.startStream(true, table, streamFlush, 0, 0, table)
}

func (l *LSM) admitWaiters() {
	for len(l.waiters) > 0 && l.memUsed < 2*l.cfg.MemtableBytes {
		w := l.waiters[0]
		copy(l.waiters, l.waiters[1:])
		l.waiters[len(l.waiters)-1] = waiter{}
		l.waiters = l.waiters[:len(l.waiters)-1]
		l.admit(w.size, w.done)
	}
}

// targetBytes returns the capacity of level i before it overflows.
func (l *LSM) targetBytes(i int) int64 {
	t := l.cfg.MemtableBytes * int64(l.cfg.L0CompactTrigger)
	for j := 0; j < i; j++ {
		t *= levelFanout
	}
	return t
}

// maybeCompact merges one overflowing level into the next: read the input
// table plus the overlapping fraction of the next level, write the merged
// run — all as sequential streams.
func (l *LSM) maybeCompact() {
	if l.compBusy {
		return
	}
	src := -1
	for i := 0; i < len(l.levels)-1; i++ {
		if (i == 0 && l.levels[0].tables >= l.cfg.L0CompactTrigger) ||
			(i > 0 && l.levels[i].bytes > l.targetBytes(i)) {
			src = i
			break
		}
	}
	if src < 0 {
		return
	}
	l.compBusy = true
	l.stats.Compactions++
	moved := l.levels[src].bytes
	if src == 0 {
		// Compact all L0 tables together (they overlap each other).
		l.levels[0].tables = 0
	} else {
		moved = l.levels[src].bytes / 2 // move roughly half the level
		if moved <= 0 {
			moved = l.levels[src].bytes
		}
	}
	bs := int64(l.dev.BlockSize())
	moved = align(moved, bs)
	overlap := align(int64(overlapFrac*float64(moved)), bs)
	l.levels[src].bytes -= moved
	l.startStream(false, moved+overlap, streamCompactRead, src, moved, 0)
}

// Stream purposes: what to do when the last segment of a stream lands.
const (
	streamFlush uint8 = iota
	streamCompactRead
	streamCompactWrite
)

// lsmStream is one sequential flush/compaction run of segment-sized I/Os.
// Offsets for the whole run are allocated from the ring up front — before
// any I/O issues — so concurrent flush and compaction streams claim
// disjoint extents in a deterministic order. The offs/sizes backing
// arrays and the stream struct itself are reused via the engine's free
// list.
type lsmStream struct {
	l        *LSM
	write    bool
	purpose  uint8
	offs     []int64
	sizes    []int64
	next     int
	inflight int
	finished bool

	src        int   // compaction source level
	moved      int64 // compaction bytes moved to src+1
	table      int64 // flush table size
	writeBytes int64 // compaction write-back size (read stream only)

	nextFree *lsmStream
}

func (l *LSM) getStream() *lsmStream {
	s := l.freeStreams
	if s != nil {
		l.freeStreams = s.nextFree
		s.nextFree = nil
		return s
	}
	return &lsmStream{l: l}
}

func (l *LSM) releaseStream(s *lsmStream) {
	s.offs = s.offs[:0]
	s.sizes = s.sizes[:0]
	s.next = 0
	s.inflight = 0
	s.finished = false
	s.src = 0
	s.moved = 0
	s.table = 0
	s.writeBytes = 0
	s.nextFree = l.freeStreams
	l.freeStreams = s
}

// startStream carves total bytes into segment extents (all allocated
// before the first submit) and pumps them at the engine's queue depth.
func (l *LSM) startStream(write bool, total int64, purpose uint8, src int, moved, table int64) {
	s := l.getStream()
	s.write = write
	s.purpose = purpose
	s.src = src
	s.moved = moved
	s.table = table
	if purpose == streamCompactRead {
		s.writeBytes = total // the merged run writes back what it read
	}
	if total > 0 {
		seg := int64(segmentIOBytes)
		bs := int64(l.dev.BlockSize())
		for total > 0 {
			n := seg
			if n > total {
				n = align(total, bs)
			}
			s.offs = append(s.offs, l.ring.alloc(n))
			s.sizes = append(s.sizes, n)
			total -= n
		}
	}
	if len(s.offs) == 0 {
		s.finished = true
		s.complete()
		return
	}
	s.pump()
}

// pump keeps queueDepth segments in flight.
func (s *lsmStream) pump() {
	l := s.l
	for s.inflight < queueDepth && s.next < len(s.offs) {
		i := s.next
		s.next++
		s.inflight++
		op := blockdev.Write
		if s.write {
			l.stats.DeviceWrites++
			l.stats.DeviceWriteBytes += s.sizes[i]
		} else {
			op = blockdev.Read
			l.stats.DeviceReads++
			l.stats.DeviceReadBytes += s.sizes[i]
		}
		l.inflight++
		r := l.getReq()
		r.s = s
		r.req.Op = op
		r.req.Offset = s.offs[i]
		r.req.Size = s.sizes[i]
		l.dev.Submit(&r.req)
	}
}

// complete runs the stream's continuation once every segment has landed.
func (s *lsmStream) complete() {
	l := s.l
	switch s.purpose {
	case streamFlush:
		table := s.table
		l.releaseStream(s)
		l.flushBusy = false
		l.levels[0].tables++
		l.levels[0].bytes += table
		l.admitWaiters()
		l.maybeCompact()
		if l.memUsed >= l.cfg.MemtableBytes || (l.memUsed > 0 && len(l.barriers) > 0) {
			l.maybeFlush()
		}
		l.checkBarriers()
	case streamCompactRead:
		src, moved, wb := s.src, s.moved, s.writeBytes
		l.releaseStream(s)
		l.startStream(true, wb, streamCompactWrite, src, moved, 0)
	case streamCompactWrite:
		src, moved := s.src, s.moved
		l.releaseStream(s)
		l.compBusy = false
		dst := src + 1
		l.levels[dst].bytes += moved
		l.levels[dst].tables++
		l.maybeCompact()
		l.checkBarriers()
	}
}

// lsmReq is a pooled device request whose OnComplete is bound once, at
// construction — the per-I/O path allocates nothing.
type lsmReq struct {
	req      blockdev.Request
	s        *lsmStream
	nextFree *lsmReq
}

func (l *LSM) getReq() *lsmReq {
	r := l.freeReqs
	if r != nil {
		l.freeReqs = r.nextFree
		r.nextFree = nil
		return r
	}
	r = &lsmReq{}
	r.req.OnComplete = r.onComplete
	return r
}

func (r *lsmReq) onComplete(_ *blockdev.Request, _ sim.Time) {
	s := r.s
	l := s.l
	r.s = nil
	r.nextFree = l.freeReqs
	l.freeReqs = r
	s.inflight--
	l.inflight--
	if s.next < len(s.offs) {
		s.pump()
		return
	}
	if s.inflight == 0 && !s.finished {
		s.finished = true
		s.complete()
	}
}

// lsmGet is a pooled lookup probing levels as a dependent read chain.
type lsmGet struct {
	l        *LSM
	done     func()
	h        uint64
	left     int
	req      blockdev.Request
	nextFree *lsmGet
}

func (l *LSM) getGet() *lsmGet {
	g := l.freeGets
	if g != nil {
		l.freeGets = g.nextFree
		g.nextFree = nil
		return g
	}
	g = &lsmGet{l: l}
	g.req.OnComplete = g.onComplete
	return g
}

// issue submits the next level probe: one block-sized read at a
// hash-derived offset (the simulator tracks cost, not placement).
func (g *lsmGet) issue() {
	l := g.l
	g.left--
	g.h = g.h*6364136223846793005 + 1442695040888963407
	bs := int64(l.dev.BlockSize())
	blocks := l.dev.Capacity() / bs
	l.stats.DeviceReads++
	l.stats.DeviceReadBytes += bs
	l.stats.GetReads++
	l.inflight++
	g.req.Op = blockdev.Read
	g.req.Offset = int64(g.h%uint64(blocks)) * bs
	g.req.Size = bs
	l.dev.Submit(&g.req)
}

func (g *lsmGet) onComplete(_ *blockdev.Request, _ sim.Time) {
	l := g.l
	l.inflight--
	if g.left > 0 {
		g.issue()
		return
	}
	done := g.done
	g.done = nil
	g.nextFree = l.freeGets
	l.freeGets = g
	done()
	l.checkBarriers()
}

var _ Engine = (*LSM)(nil)
