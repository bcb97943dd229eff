// Package ftl implements the flash translation layer of the simulated local
// SSD (paper §II-A): page-level address mapping, superblock write frontiers,
// a DRAM write buffer with coalescing and backpressure, greedy garbage
// collection with valid-page relocation, TRIM, and wear accounting.
//
// All state mutations happen synchronously inside the simulation engine's
// event callbacks; the flash array (package flash) models only time. The
// performance phenomena the paper attributes to the local SSD — the fast
// buffered small writes, the GC throughput cliff near 90% of capacity
// written, and GC-induced tail latencies — emerge from these mechanisms
// rather than from fitted curves.
package ftl

import (
	"fmt"

	"essdsim/internal/flash"
	"essdsim/internal/sim"
)

// Config parameterizes the FTL.
type Config struct {
	LogicalPageSize int64   // host-visible block size, typically 4096
	UserCapacity    int64   // advertised capacity in bytes
	Overprovision   float64 // extra physical space fraction, e.g. 0.05

	WriteBufferBytes int64 // DRAM write buffer capacity

	GCLowWaterFrac  float64 // GC starts when free superblocks fall below this fraction
	GCHighWaterFrac float64 // GC stops when free superblocks reach this fraction
	ReserveSBs      int     // superblocks reserved for the GC frontier
	GCStreams       int     // concurrent relocation pipelines during GC
}

// DefaultConfig returns the scaled-970Pro FTL parameters used by the SSD
// profile.
func DefaultConfig(userCapacity int64) Config {
	return Config{
		LogicalPageSize:  4096,
		UserCapacity:     userCapacity,
		Overprovision:    0.05,
		WriteBufferBytes: 64 << 20,
		GCLowWaterFrac:   0.06,
		GCHighWaterFrac:  0.08,
		ReserveSBs:       2,
		GCStreams:        16,
	}
}

// Superblock states.
const (
	sbFree uint8 = iota
	sbOpen
	sbClosed
	sbVictim
)

// Buffer state flags per LPN: low bit marks a pending (not yet drained)
// entry, the upper bits count in-flight program copies.
const (
	bufPending  uint8 = 1
	bufInflight uint8 = 2 // increment per in-flight copy
)

const unmapped int32 = -1

type frontier struct {
	sb   int32 // open superblock, or -1
	next int32 // next slot index within sb
}

// Counters exposes FTL activity for write-amplification and wear analysis.
type Counters struct {
	HostSlots         uint64 // slots written on behalf of the host
	GCSlots           uint64 // slots written by GC relocation
	PreconditionSlots uint64
	Erases            uint64 // superblock erases
	GCVictims         uint64
	InvalidatedBytes  int64
	BufferCoalesced   uint64 // overwrites absorbed in the write buffer
	BufferStallNanos  sim.Duration
}

// WriteAmplification returns (host+gc)/host slot writes, or 1 if no host
// writes have occurred.
func (c Counters) WriteAmplification() float64 {
	if c.HostSlots == 0 {
		return 1
	}
	return float64(c.HostSlots+c.GCSlots) / float64(c.HostSlots)
}

// FTL is the flash translation layer state machine.
type FTL struct {
	eng *sim.Engine
	arr *flash.Array
	cfg Config

	// Geometry, derived once.
	dies         int
	slotsPerPage int
	slotsPerUnit int
	slotsPerSB   int
	numSBs       int
	userLPNs     int64

	// Address state.
	mapping  []int32 // LPN -> packed PPN (sb*slotsPerSB + slot)
	rmap     []int32 // PPN -> LPN
	sbValid  []int32
	sbErases []int32
	sbState  []uint8
	freeSBs  []int32

	host frontier
	gc   frontier

	// Write buffer.
	bufState   []uint8 // per-LPN buffer flags
	bufUsed    int64
	pending    ring[int64]  // admitted pages not yet drained, oldest first
	waiters    ring[waiter] // host writes not yet fully admitted
	drainBusy  []int8       // in-flight program units per die
	forceFlush int          // outstanding flush requests
	flushDone  []func()
	freeUnits  *drainUnit // recycled drain records

	gcActive    bool
	reloc       relocation // the victim GC is relocating
	freeBatches *gcBatch   // recycled relocation batches

	// ReadList scratch: the flash pages of one call in first-seen order
	// (ppns), and one bit per flash page marking those already listed,
	// clear between calls.
	readPPNs []int32
	pageSeen []uint64
	freeFans *readFan // recycled ReadList records

	// state owns the pooled storage behind mapping, rmap, bufState,
	// pageSeen and pending; nil once Release has returned it.
	state *addrState

	counters Counters
}

type waiter struct {
	lpn   int64
	count int64
	since sim.Time
	done  func()
}

// New builds an FTL over the given flash array. It panics on inconsistent
// configuration (a construction-time programming error).
func New(eng *sim.Engine, arr *flash.Array, cfg Config) *FTL {
	fc := arr.Config()
	if cfg.LogicalPageSize <= 0 || fc.PageSize%cfg.LogicalPageSize != 0 {
		panic(fmt.Sprintf("ftl: flash page %d not a multiple of logical page %d",
			fc.PageSize, cfg.LogicalPageSize))
	}
	f := &FTL{eng: eng, arr: arr, cfg: cfg}
	f.dies = fc.Dies()
	f.slotsPerPage = int(fc.PageSize / cfg.LogicalPageSize)
	f.slotsPerUnit = f.slotsPerPage * fc.PlanesPerDie
	f.slotsPerSB = f.slotsPerUnit * f.dies * fc.PagesPerBlock
	f.userLPNs = cfg.UserCapacity / cfg.LogicalPageSize
	physSlots := int64(float64(f.userLPNs) * (1 + cfg.Overprovision))
	f.numSBs = int((physSlots + int64(f.slotsPerSB) - 1) / int64(f.slotsPerSB))
	// The pool must be large enough that the GC high-water mark stays
	// reachable at full logical utilization (user data fully packed, both
	// frontiers open, one superblock of slack); otherwise GC would churn
	// forever against an unreachable target. Iterate because the water
	// marks scale with the pool size.
	userSBs := int((f.userLPNs + int64(f.slotsPerSB) - 1) / int64(f.slotsPerSB))
	for {
		need := userSBs + 2 + f.highWaterSBs() + 1
		if f.numSBs >= need {
			break
		}
		f.numSBs = need
	}
	if int64(f.numSBs)*int64(f.slotsPerSB) > int64(1)<<31 {
		panic("ftl: physical slot space exceeds int32 packing")
	}
	// Pending plus in-flight pages never exceed the buffer, so a pending
	// ring of the buffer's page count never grows.
	slots := f.numSBs * f.slotsPerSB
	f.state = acquireState(f.userLPNs, slots, slots/f.slotsPerPage,
		max(int(cfg.WriteBufferBytes/cfg.LogicalPageSize), 1))
	f.mapping, f.rmap, f.bufState = f.state.mapping, f.state.rmap, f.state.bufState
	f.pageSeen = f.state.pageSeen
	f.pending = ring[int64]{buf: f.state.pending}
	f.sbValid = make([]int32, f.numSBs)
	f.sbErases = make([]int32, f.numSBs)
	f.sbState = make([]uint8, f.numSBs)
	f.freeSBs = make([]int32, 0, f.numSBs)
	for i := f.numSBs - 1; i >= 0; i-- {
		f.freeSBs = append(f.freeSBs, int32(i))
	}
	f.host = frontier{sb: -1}
	f.gc = frontier{sb: -1}
	f.drainBusy = make([]int8, f.dies)
	return f
}

// Counters returns a snapshot of activity counters.
func (f *FTL) Counters() Counters { return f.counters }

// UserLPNs returns the number of host-visible logical pages.
func (f *FTL) UserLPNs() int64 { return f.userLPNs }

// FreeSuperblocks returns the current number of free superblocks.
func (f *FTL) FreeSuperblocks() int {
	f.mustLive()
	return len(f.freeSBs)
}

// GCActive reports whether garbage collection is currently running.
func (f *FTL) GCActive() bool { return f.gcActive }

// BufferBytes returns the bytes currently held in the write buffer.
func (f *FTL) BufferBytes() int64 { return f.bufUsed }

// InBuffer reports whether the LPN is currently buffered in DRAM (pending or
// in flight), i.e. a read of it is a DRAM hit.
func (f *FTL) InBuffer(lpn int64) bool { return f.bufState[lpn] != 0 }

// Mapped reports whether the LPN has flash-resident data.
func (f *FTL) Mapped(lpn int64) bool { return f.mapping[lpn] != unmapped }

func (f *FTL) lowWaterSBs() int {
	n := int(f.cfg.GCLowWaterFrac * float64(f.numSBs))
	if n < f.cfg.ReserveSBs+1 {
		n = f.cfg.ReserveSBs + 1
	}
	return n
}

func (f *FTL) highWaterSBs() int {
	n := int(f.cfg.GCHighWaterFrac * float64(f.numSBs))
	if n <= f.lowWaterSBs() {
		n = f.lowWaterSBs() + 1
	}
	return n
}

func (f *FTL) dieOfSlot(slot int32) int {
	return int(slot) / f.slotsPerUnit % f.dies
}

func (f *FTL) pageOfPPN(ppn int32) int32 {
	return ppn / int32(f.slotsPerPage)
}

// invalidate drops the current mapping of lpn, if any.
func (f *FTL) invalidate(lpn int64) {
	old := f.mapping[lpn]
	if old == unmapped {
		return
	}
	f.mapping[lpn] = unmapped
	f.rmap[old] = unmapped
	f.sbValid[old/int32(f.slotsPerSB)]--
	f.counters.InvalidatedBytes += f.cfg.LogicalPageSize
}

// ensureOpen makes sure the frontier has an open superblock with room for at
// least one unit. reserve is the number of free superblocks that must remain
// after opening. Returns false if no superblock can be opened.
func (f *FTL) ensureOpen(fr *frontier, reserve int) bool {
	if fr.sb >= 0 && int(fr.next)+f.slotsPerUnit <= f.slotsPerSB {
		return true
	}
	if fr.sb >= 0 {
		f.sbState[fr.sb] = sbClosed
		fr.sb = -1
	}
	if len(f.freeSBs) <= reserve {
		return false
	}
	sb := f.freeSBs[len(f.freeSBs)-1]
	f.freeSBs = f.freeSBs[:len(f.freeSBs)-1]
	f.sbState[sb] = sbOpen
	fr.sb = sb
	fr.next = 0
	return true
}

// allocUnit reserves the next program unit on the frontier and binds the
// given LPNs to its slots, updating the mapping synchronously. The unit
// lands on die f.dieOfSlot(fr.next) as read before the call.
func (f *FTL) allocUnit(fr *frontier, lpns []int64) {
	sb := fr.sb
	ppn := sb*int32(f.slotsPerSB) + fr.next
	fr.next += int32(f.slotsPerUnit)
	mapping, rmap := f.mapping, f.rmap
	for _, lpn := range lpns {
		f.invalidate(lpn)
		mapping[lpn] = ppn
		rmap[ppn] = int32(lpn)
		ppn++
	}
	// One add per unit: invalidate only ever decrements a count, and no
	// count is read until the unit is bound.
	f.sbValid[sb] += int32(len(lpns))
}

// HostWrite buffers count logical pages starting at lpn and acknowledges
// (calls done) once all of them are admitted to the write buffer. Admission
// is immediate when the buffer has room and queues behind drain progress
// otherwise — the mechanism behind the local SSD's fast small writes and its
// GC-era stalls.
func (f *FTL) HostWrite(lpn, count int64, done func()) {
	if done == nil {
		done = func() {}
	}
	f.waiters.push(waiter{lpn: lpn, count: count, since: f.eng.Now(), done: done})
	f.admitWaiters()
	f.kickDrain()
}

// admitWaiters admits queued writes page by page, in FIFO order, as buffer
// space allows. Partial admission lets a single request larger than the
// whole buffer stream through it; the request acks when its last page is
// admitted.
func (f *FTL) admitWaiters() {
	for f.waiters.len() > 0 {
		w := f.waiters.front()
		for w.count > 0 {
			p := w.lpn
			if f.bufState[p]&bufPending != 0 {
				f.counters.BufferCoalesced++
				w.lpn++
				w.count--
				continue
			}
			if f.bufUsed+f.cfg.LogicalPageSize > f.cfg.WriteBufferBytes {
				return // head waiter blocked: preserve FIFO order
			}
			f.bufState[p] |= bufPending
			f.pending.push(p)
			f.bufUsed += f.cfg.LogicalPageSize
			w.lpn++
			w.count--
		}
		f.counters.BufferStallNanos += f.eng.Now().Sub(w.since)
		f.waiters.pop().done()
	}
}

// Flush forces the write buffer to drain completely, then calls done.
func (f *FTL) Flush(done func()) {
	if f.bufUsed == 0 && f.waiters.len() == 0 {
		done()
		return
	}
	f.forceFlush++
	f.flushDone = append(f.flushDone, done)
	f.kickDrain()
}

func (f *FTL) checkFlushDone() {
	if f.forceFlush == 0 || f.bufUsed != 0 || f.waiters.len() != 0 {
		return
	}
	dones := f.flushDone
	f.forceFlush = 0
	f.flushDone = nil
	for _, d := range dones {
		d()
	}
}

// kickDrain starts as many program units as die scheduling and space allow.
func (f *FTL) kickDrain() {
	for f.pending.len() > 0 {
		if f.pending.len() < f.slotsPerUnit && f.forceFlush == 0 {
			return // wait for a full unit
		}
		if !f.ensureOpen(&f.host, f.cfg.ReserveSBs) {
			f.maybeGC() // out of space: GC will re-kick on frees
			return
		}
		die := f.dieOfSlot(f.host.next)
		if f.drainBusy[die] >= 4 {
			// Head-of-line: the frontier's next die is saturated. A deeper
			// per-die window tolerates the TLC program-time spread without
			// idling other dies behind one slow MSB program.
			return
		}
		n := min(f.slotsPerUnit, f.pending.len())
		u := f.getUnit()
		u.die = die
		for i := 0; i < n; i++ {
			p := f.pending.pop()
			f.bufState[p] &^= bufPending
			f.bufState[p] += bufInflight
			u.lpns = append(u.lpns, p)
		}
		f.allocUnit(&f.host, u.lpns)
		f.counters.HostSlots += uint64(n)
		f.drainBusy[die]++
		f.arr.ProgramUnit(die, u.programmed)
		f.maybeGC()
	}
}

// drainUnit is one host program unit in flight from the write buffer to
// flash. Records are recycled through the FTL's free list with their
// completion method bound once, so draining a unit allocates nothing.
type drainUnit struct {
	f          *FTL
	die        int
	lpns       []int64
	programmed func() // bound onProgrammed
	nextFree   *drainUnit
}

func (f *FTL) getUnit() *drainUnit {
	u := f.freeUnits
	if u != nil {
		f.freeUnits = u.nextFree
		u.nextFree = nil
		return u
	}
	u = &drainUnit{f: f, lpns: make([]int64, 0, f.slotsPerUnit)}
	u.programmed = u.onProgrammed
	return u
}

// onProgrammed releases the unit's pages from the write buffer once they
// are durable, recycles the record, and restarts whatever the freed space
// unblocks.
func (u *drainUnit) onProgrammed() {
	f := u.f
	f.drainBusy[u.die]--
	f.bufUsed -= int64(len(u.lpns)) * f.cfg.LogicalPageSize
	for _, p := range u.lpns {
		f.bufState[p] -= bufInflight
	}
	u.lpns = u.lpns[:0]
	u.nextFree = f.freeUnits
	f.freeUnits = u
	f.admitWaiters()
	f.maybeGC()
	f.kickDrain()
	f.checkFlushDone()
}

// ReadList reads an arbitrary set of logical pages, calling done when all
// media reads complete. LPNs that share a flash page share one media read,
// and pages are read in the order their first LPN appears in lpns, which
// ReadList does not retain. It returns the number of flash page reads
// issued.
func (f *FTL) ReadList(lpns []int64, done func()) int {
	pages, seen := f.readPPNs[:0], f.pageSeen
	for _, p := range lpns {
		if f.bufState[p] != 0 {
			continue // DRAM hit
		}
		ppn := f.mapping[p]
		if ppn == unmapped {
			continue // never written: served from the zero map
		}
		pg := f.pageOfPPN(ppn)
		if bit := uint64(1) << (pg & 63); seen[pg>>6]&bit == 0 {
			seen[pg>>6] |= bit
			pages = append(pages, ppn)
		}
	}
	f.readPPNs = pages
	if len(pages) == 0 {
		f.eng.Schedule(0, done)
		return 0
	}
	r := f.freeFans
	if r != nil {
		f.freeFans = r.nextFree
		r.nextFree = nil
	} else {
		r = &readFan{f: f}
		r.page = r.onPage
	}
	r.left, r.done = len(pages), done
	for _, ppn := range pages {
		pg := f.pageOfPPN(ppn)
		seen[pg>>6] &^= uint64(1) << (pg & 63)
		f.arr.ReadPage(f.dieOfSlot(ppn%int32(f.slotsPerSB)), r.page)
	}
	return len(pages)
}

// readFan is one ReadList waiting for its page reads. Records are
// recycled through the FTL's free list with onPage bound once, so a read
// allocates nothing.
type readFan struct {
	f        *FTL
	left     int    // page reads outstanding
	done     func() // the ReadList's completion
	page     func() // bound onPage
	nextFree *readFan
}

// onPage counts one landed page read; the last recycles the record and
// completes the ReadList.
func (r *readFan) onPage() {
	if r.left--; r.left > 0 {
		return
	}
	f, done := r.f, r.done
	r.done = nil
	r.nextFree = f.freeFans
	f.freeFans = r
	done()
}

// Trim invalidates count logical pages starting at lpn. Buffered copies are
// left to drain (they will be garbage immediately), matching real devices'
// simplest deallocate behaviour.
func (f *FTL) Trim(lpn, count int64) {
	for i := int64(0); i < count; i++ {
		f.invalidate(lpn + i)
	}
}

// maybeGC starts the GC worker if the free pool fell below the low water
// mark.
func (f *FTL) maybeGC() {
	if f.gcActive || len(f.freeSBs) >= f.lowWaterSBs() {
		return
	}
	f.gcActive = true
	f.gcStep()
}

func (f *FTL) gcStep() {
	if len(f.freeSBs) >= f.highWaterSBs() {
		f.gcActive = false
		return
	}
	v := f.pickVictim()
	if v < 0 {
		f.gcActive = false
		return
	}
	if f.sbValid[v] >= int32(f.slotsPerSB) {
		// Even the best victim is fully valid: relocation would free
		// nothing. Stop rather than churn write amplification forever;
		// the next invalidation re-arms GC.
		f.gcActive = false
		return
	}
	f.sbState[v] = sbVictim
	f.counters.GCVictims++
	f.relocate(v, func() {
		f.eraseSB(v, f.gcStep)
	})
}

// pickVictim returns the closed superblock with the fewest valid slots,
// breaking ties toward the least-worn block — greedy selection with a
// wear-leveling nudge. Returns -1 if no victim exists.
func (f *FTL) pickVictim() int32 {
	best := int32(-1)
	for i := 0; i < f.numSBs; i++ {
		if f.sbState[i] != sbClosed {
			continue
		}
		if best < 0 ||
			f.sbValid[i] < f.sbValid[best] ||
			(f.sbValid[i] == f.sbValid[best] && f.sbErases[i] < f.sbErases[best]) {
			best = int32(i)
		}
	}
	return best
}

// relocation moves the still-valid slots of one GC victim to the GC
// frontier through up to GCStreams concurrent read+program batches. GC
// relocates one victim at a time, so each FTL reuses one relocation and
// its live-slot buffer, and the batches recycle gcBatch records: moving a
// victim allocates nothing per batch.
type relocation struct {
	f      *FTL
	v      int32
	live   []int32 // victim slots valid at selection, ascending
	idx    int     // next live slot to batch
	active int     // batches in flight
	done   func()
}

// relocate moves all still-valid slots of victim v to the GC frontier,
// then calls done.
func (f *FTL) relocate(v int32, done func()) {
	r := &f.reloc
	*r = relocation{f: f, v: v, live: r.live[:0], done: done}
	base := int32(f.slotsPerSB) * v
	for s := int32(0); s < int32(f.slotsPerSB); s++ {
		if f.rmap[base+s] != unmapped {
			r.live = append(r.live, s)
		}
	}
	r.pump()
}

// pump starts batches of up to one program unit of live slots while
// streams are free, and calls done once every batch has finished. Batches
// complete through events, never inside gcMoveBatch, so done runs exactly
// once: from the last batch's completion, or here if nothing is live.
func (r *relocation) pump() {
	f := r.f
	for r.active < f.cfg.GCStreams && r.idx < len(r.live) {
		n := min(f.slotsPerUnit, len(r.live)-r.idx)
		slots := r.live[r.idx : r.idx+n]
		r.idx += n
		r.active++
		f.gcMoveBatch(r.v, slots)
	}
	if r.idx == len(r.live) && r.active == 0 {
		r.done()
	}
}

func (r *relocation) onBatchDone() {
	r.active--
	r.pump()
}

// gcBatch is one relocation batch in flight: the flash pages behind its
// victim slots are read, then the slots still live are programmed to the
// GC frontier. Records are recycled through the FTL's free list with their
// stage methods bound once.
type gcBatch struct {
	f        *FTL
	v        int32
	slots    []int32 // a window of the relocation's live slots
	reads    int     // page reads outstanding
	lpns     []int64
	read     func() // bound onRead
	done     func() // bound onDone
	nextFree *gcBatch
}

// gcMoveBatch reads the flash pages backing a batch of victim slots and
// programs the still-live ones to the GC frontier.
func (f *FTL) gcMoveBatch(v int32, slots []int32) {
	b := f.freeBatches
	if b != nil {
		f.freeBatches = b.nextFree
		b.nextFree = nil
	} else {
		b = &gcBatch{f: f, lpns: make([]int64, 0, f.slotsPerUnit)}
		b.read = b.onRead
		b.done = b.onDone
	}
	b.v, b.slots = v, slots
	base := int32(f.slotsPerSB) * v
	last := int32(-1)
	for _, s := range slots {
		if f.rmap[base+s] == unmapped {
			continue // overwritten since selection
		}
		// Slots ascend, so one page's slots are adjacent: one read each.
		if pg := (base + s) / int32(f.slotsPerPage); pg != last {
			last = pg
			b.reads++
			f.arr.ReadPage(f.dieOfSlot(s), b.read)
		}
	}
	if b.reads == 0 {
		f.eng.Schedule(0, b.done)
	}
}

func (b *gcBatch) onRead() {
	b.reads--
	if b.reads > 0 {
		return
	}
	f := b.f
	base := int32(f.slotsPerSB) * b.v
	for _, s := range b.slots {
		if lpn := f.rmap[base+s]; lpn != unmapped {
			b.lpns = append(b.lpns, int64(lpn))
		}
	}
	if len(b.lpns) == 0 {
		f.eng.Schedule(0, b.done)
		return
	}
	// The GC frontier may dip into the reserve; progress is guaranteed
	// because erasing the victim frees more than relocation consumes.
	if !f.ensureOpen(&f.gc, 0) {
		panic("ftl: GC frontier could not open a superblock (reserve misconfigured)")
	}
	die := f.dieOfSlot(f.gc.next)
	f.allocUnit(&f.gc, b.lpns)
	f.counters.GCSlots += uint64(len(b.lpns))
	f.arr.ProgramUnit(die, b.done)
}

// onDone recycles the batch and reports it to the relocation.
func (b *gcBatch) onDone() {
	f := b.f
	b.slots, b.lpns = nil, b.lpns[:0]
	b.nextFree = f.freeBatches
	f.freeBatches = b
	f.reloc.onBatchDone()
}

// eraseSB erases all block columns of the victim in parallel, returns it to
// the free pool, and restarts stalled host drains.
func (f *FTL) eraseSB(v int32, done func()) {
	remaining := f.dies
	for d := 0; d < f.dies; d++ {
		f.arr.EraseBlockColumn(d, func() {
			remaining--
			if remaining > 0 {
				return
			}
			base := int32(f.slotsPerSB) * v
			for s := int32(0); s < int32(f.slotsPerSB); s++ {
				f.rmap[base+s] = unmapped
			}
			f.sbValid[v] = 0
			f.sbErases[v]++
			f.sbState[v] = sbFree
			f.freeSBs = append(f.freeSBs, v)
			f.counters.Erases++
			f.kickDrain()
			done()
		})
	}
}

// Precondition fills fillFrac of the logical space instantly (no simulated
// time), as if it had been written once. With randomized=false pages are
// laid out sequentially (physically striped in LPN order, the layout after a
// sequential fill); with randomized=true LPN order is permuted, emulating a
// randomly written device. rng is only used when randomized. A fill that is
// not positive (NaN included) does nothing.
func (f *FTL) Precondition(fillFrac float64, randomized bool, rng *sim.RNG) {
	if !(fillFrac > 0) {
		return
	}
	f.mustLive()
	n := int64(min(fillFrac, 1) * float64(f.userLPNs))
	if !randomized {
		if f.pristine() {
			f.preconditionSequential(n)
		} else {
			f.preconditionUnits(n, nil)
		}
		return
	}
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	for i := int64(n - 1); i > 0; i-- {
		j := rng.Int64N(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	f.preconditionUnits(n, order)
}

// preconditionUnits binds LPNs [0, n) one program unit at a time on the
// host frontier, in the given order, or in LPN order if order is nil.
func (f *FTL) preconditionUnits(n int64, order []int64) {
	unit := make([]int64, f.slotsPerUnit)
	for i := int64(0); i < n; i += int64(f.slotsPerUnit) {
		end := min(i+int64(f.slotsPerUnit), n)
		var lpns []int64
		if order != nil {
			lpns = order[i:end]
		} else {
			lpns = unit[:end-i]
			for k := range lpns {
				lpns[k] = i + int64(k)
			}
		}
		if !f.ensureOpen(&f.host, f.cfg.ReserveSBs) {
			panic("ftl: precondition ran out of space")
		}
		f.allocUnit(&f.host, lpns)
		f.counters.PreconditionSlots += uint64(len(lpns))
	}
}

// pristine reports whether no slot was ever written, the host frontier is
// unopened and the write buffer is empty: the state New (and a pooled
// reset) gives, in which free superblocks pop in index order 0, 1, 2, …
func (f *FTL) pristine() bool {
	c := f.counters
	return c.HostSlots == 0 && c.GCSlots == 0 && c.PreconditionSlots == 0 &&
		f.host.sb < 0 && f.bufUsed == 0 && f.pending.len() == 0
}

// preconditionSequential is preconditionUnits(n, nil) on a pristine FTL in
// closed form. Superblocks open in index order and units fill them
// contiguously, so LPN l lands on slot l: superblocks 0..last-1 end
// closed and full, last stays open with the host frontier just past the
// final (possibly partial) unit.
func (f *FTL) preconditionSequential(n int64) {
	if n <= 0 {
		return
	}
	perSB, per := int64(f.slotsPerSB), int64(f.slotsPerUnit)
	units := (n + per - 1) / per
	last := int((units - 1) / (perSB / per))
	// The per-unit loop opens superblock j with numSBs-j free, and fails
	// once that is no more than the reserve.
	if f.numSBs-last <= f.cfg.ReserveSBs {
		panic("ftl: precondition ran out of space")
	}
	identity(f.mapping[:n])
	identity(f.rmap[:n])
	for sb := 0; sb <= last; sb++ {
		f.sbValid[sb] = int32(min(n, int64(sb+1)*perSB) - int64(sb)*perSB)
		f.sbState[sb] = sbClosed
	}
	f.sbState[last] = sbOpen
	f.freeSBs = f.freeSBs[:len(f.freeSBs)-(last+1)]
	f.host = frontier{sb: int32(last), next: int32(units*per - int64(last)*perSB)}
	f.counters.PreconditionSlots += uint64(n)
}

// identity sets s[i] = i. Eight stores per iteration fill the ssd
// profile's two 4M-entry maps in about two thirds of the time of one.
func identity(s []int32) {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		v, b := int32(i), (*[8]int32)(s[i:])
		b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7] = v, v+1, v+2, v+3, v+4, v+5, v+6, v+7
	}
	for ; i < len(s); i++ {
		s[i] = int32(i)
	}
}

// Utilization returns the fraction of user LPNs currently mapped.
func (f *FTL) Utilization() float64 {
	f.mustLive()
	var mappedCount int64
	for _, sb := range f.sbValid {
		mappedCount += int64(sb)
	}
	return float64(mappedCount) / float64(f.userLPNs)
}
