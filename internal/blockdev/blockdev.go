// Package blockdev defines the block-device abstraction shared by the local
// SSD and ESSD simulators: a logical-block address space accessed with
// asynchronous read/write/trim requests, exactly the interface the paper's
// devices expose to the host (§II-A).
package blockdev

import (
	"fmt"

	"essdsim/internal/sim"
)

// Op is the type of a block I/O operation.
type Op uint8

// Supported operation types.
const (
	Read Op = iota
	Write
	Trim
	Flush
)

// String returns the fio-style name of the operation.
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	case Trim:
		return "trim"
	case Flush:
		return "flush"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is one asynchronous block I/O. Submit schedules it inside the
// device's simulation engine; OnComplete fires in virtual time when the
// device acknowledges the I/O.
type Request struct {
	Op     Op
	Offset int64 // byte offset, must be block-aligned
	Size   int64 // byte length, must be a multiple of the block size

	Issued sim.Time // set by the device at submission

	// OnComplete is invoked exactly once when the request finishes.
	// It may be nil. A device calls it as the last thing it does with the
	// request and keeps no reference afterwards, so the callback may
	// recycle the request, or submit it again, before returning.
	OnComplete func(r *Request, at sim.Time)
}

// Latency returns the completion latency given the completion time.
func (r *Request) Latency(at sim.Time) sim.Duration { return at.Sub(r.Issued) }

// Device is a simulated block storage device. Submit is asynchronous and
// non-blocking: completions are delivered through Request.OnComplete in
// virtual time. Devices are single-threaded within their engine.
type Device interface {
	// Name identifies the device (e.g. "ESSD-1 (io2)").
	Name() string
	// Capacity returns the usable capacity in bytes.
	Capacity() int64
	// BlockSize returns the logical block size in bytes (typically 4096).
	BlockSize() int
	// Engine returns the simulation engine the device runs on.
	Engine() *sim.Engine
	// Submit enqueues the request. It panics on misaligned or out-of-range
	// requests, which indicate harness bugs rather than device conditions.
	Submit(r *Request)
}

// Validate panics if the request is not aligned and in range for the device.
// Devices call this at the top of Submit.
func Validate(d Device, r *Request) {
	bs := int64(d.BlockSize())
	if r.Op == Flush {
		return
	}
	if r.Size <= 0 || r.Size%bs != 0 {
		panic(fmt.Sprintf("%s: bad request size %d (block %d)", d.Name(), r.Size, bs))
	}
	if r.Offset < 0 || r.Offset%bs != 0 {
		panic(fmt.Sprintf("%s: misaligned offset %d", d.Name(), r.Offset))
	}
	if r.Offset+r.Size > d.Capacity() {
		panic(fmt.Sprintf("%s: request [%d,%d) beyond capacity %d",
			d.Name(), r.Offset, r.Offset+r.Size, d.Capacity()))
	}
}

// Config captures the externally visible envelope of a device, mirroring the
// rows of the paper's Table I.
type Config struct {
	Provider   string  // e.g. "Amazon AWS"
	Model      string  // e.g. "io2"
	MaxReadBW  float64 // bytes/s
	MaxWriteBW float64 // bytes/s
	MaxIOPS    float64
	Capacity   int64  // bytes
	Kind       string // "ESSD" or "SSD"
}

// GBps formats a byte rate as GB/s (decimal, as in the paper).
func GBps(bytesPerSec float64) float64 { return bytesPerSec / 1e9 }
