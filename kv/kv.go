// Package kv implements two key-value write-path designs over simulated
// block devices — a leveled log-structured merge engine (the RocksDB-style
// design the paper's future work targets) and an update-in-place page
// store (B-tree style). The paper's Implication #3 asks whether converting
// random writes into sequential writes is still worth it on an ESSD; these
// engines let users answer that question for their own volume and
// workload, with honest device-level I/O and write-amplification
// accounting.
package kv

import (
	"fmt"

	"essdsim/internal/blockdev"
)

// Stats tallies an engine's user-level and device-level activity.
type Stats struct {
	Puts      uint64
	UserBytes int64
	Gets      uint64

	DeviceWrites     uint64
	DeviceWriteBytes int64
	DeviceReads      uint64
	DeviceReadBytes  int64

	// GetReads counts the device reads issued on behalf of Gets (level
	// probes for the LSM, cache-miss page fetches for the page store).
	// They are included in DeviceReads/DeviceReadBytes too.
	GetReads uint64

	Flushes     uint64 // memtable flushes (LSM)
	Compactions uint64 // compaction rounds (LSM)
	Stalls      uint64 // puts that waited on backpressure

	CacheHits   uint64 // page-cache (or memtable) hits on the read path
	CacheMisses uint64 // read-path lookups that went to the device
}

// ReadAmp returns device reads per get — the read amplification of the
// engine's lookup path. Zero when no gets ran.
func (s Stats) ReadAmp() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.GetReads) / float64(s.Gets)
}

// WriteAmp returns device write bytes per user byte.
func (s Stats) WriteAmp() float64 {
	if s.UserBytes == 0 {
		return 0
	}
	return float64(s.DeviceWriteBytes) / float64(s.UserBytes)
}

// Engine is an asynchronous key-value write engine bound to one device.
// Put acknowledges according to the engine's durability design (memtable
// admission for the LSM, page write completion for the page store).
type Engine interface {
	// Name identifies the design.
	Name() string
	// Put ingests one key/value of the given value size. done fires when
	// the engine acknowledges the put. Keys are opaque identifiers; the
	// simulation tracks sizes and placement, not contents.
	Put(key uint64, valueSize int64, done func())
	// Get reads one key. done fires when the lookup completes: from
	// memory (memtable or page cache) synchronously, or after the
	// engine's device reads (level probes for the LSM, one page read for
	// the page store) finish.
	Get(key uint64, done func())
	// BeginBatch/EndBatch bracket a run of back-to-back Puts issued by a
	// closed-loop pump. Inside a batch the engine defers its post-admission
	// housekeeping (the LSM's flush-threshold check) to EndBatch — the
	// iterative equivalent of the historical recursive pump, which ran
	// those checks LIFO after the issue cascade. Engines with no
	// admission housekeeping treat both as no-ops.
	BeginBatch()
	EndBatch()
	// Barrier fires done once all previously accepted work (including
	// background flushes and compactions) has reached the device.
	Barrier(done func())
	// Stats returns an activity snapshot.
	Stats() Stats
	// Device exposes the block device the engine runs on.
	Device() blockdev.Device
}

// align rounds n up to a multiple of bs.
func align(n, bs int64) int64 {
	if r := n % bs; r != 0 {
		n += bs - r
	}
	return n
}

// ringAllocator hands out sequential, block-aligned extents from a device
// region, wrapping at the end — the address-space behaviour of a
// log-structured store that recycles its oldest segments.
type ringAllocator struct {
	base, size int64
	head       int64
	bs         int64
}

// alloc returns a device offset for n bytes (n must be block-aligned and
// fit in the ring). Extents never straddle the wrap point.
func (r *ringAllocator) alloc(n int64) int64 {
	if n > r.size {
		panic(fmt.Sprintf("kv: extent %d exceeds ring %d", n, r.size))
	}
	if r.head+n > r.size {
		r.head = 0 // wrap: recycle the oldest segments
	}
	off := r.base + r.head
	r.head += n
	return off
}
