// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event heap, queueing resources (servers and bandwidth
// pipes), and seedable latency distributions.
//
// The queueing resources dispatch through a pluggable FlowQueue scheduler
// (Server.SetQueue, Pipe.SetQueue): nil keeps the original FIFO path
// byte-identical, DRRQueue shares service among backlogged flows in
// proportion to their weights, and ReservationQueue adds work-conserving
// per-flow guaranteed rates on top of the weighted round.
//
// All simulated storage devices in this repository are built on top of this
// engine. Simulated time is measured in integer nanoseconds and is entirely
// decoupled from wall-clock time, so experiments are fast and reproducible.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an adaptive unit, e.g. "333µs" or "1.4ms".
func (d Duration) String() string {
	switch {
	case d < 0:
		return fmt.Sprintf("-%s", (-d).String())
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	}
}

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	// cfn+arg is the one callback representation: a long-lived bound method
	// plus a per-event argument. Function values and pointers are stored in
	// an interface word directly, so hot paths that complete with a
	// caller-supplied callback (e.g. Server visits) can schedule without
	// materializing a closure per event; plain func() callbacks ride the
	// same two fields via callClosure. A nil cfn advances the clock without
	// doing work. Keeping the struct to one func field + one interface
	// makes heap sifts move 40 bytes instead of 48 and drop a pointer word
	// from every write barrier — measurable at millions of events/s.
	cfn func(any)
	arg any
}

// callClosure invokes a plain func() callback stored in an event's arg
// word. Func values are pointer-shaped, so the any-boxing is free.
func callClosure(a any) { a.(func())() }

// less orders events by (time, sequence): a strict total order, so any
// heap arity yields the identical pop order.
func (ev event) less(o event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// Engine is a single-threaded discrete-event simulation engine. It is not
// safe for concurrent use; all device models run inside its event loop.
//
// The pending-event set is split in two: a typed 4-ary min-heap for future
// events, and a FIFO ready ring for events scheduled at the current
// simulated time. Same-timestamp dispatch is the dominant pattern in the
// device models (completion callbacks chaining into dispatchers), and the
// ready ring turns each of those events into an O(1) append/pop instead of
// an O(log n) sift — while preserving the exact (time, sequence) execution
// order of a single heap, because ready events are appended in increasing
// sequence order and compared against the heap root before running.
type Engine struct {
	now    Time
	seq    uint64
	heap   []event // 4-ary min-heap ordered by event.less
	ready  []event // FIFO ring of events at the current time
	rhead  int     // ready ring head index
	nsteps uint64
	live   int // pending non-daemon events; Run stops when it hits zero

	daemonFn func(any) // cached runDaemon bound method (lazily built)
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its initial state — clock at zero, no pending
// events, step and sequence counters cleared — while keeping the event
// storage for reuse. A reset engine behaves identically to a NewEngine one,
// so pooled engines (see AcquireEngine) preserve determinism.
func (e *Engine) Reset() {
	clearEvents(e.heap)
	clearEvents(e.ready[e.rhead:])
	e.heap = e.heap[:0]
	e.ready = e.ready[:0]
	e.rhead = 0
	e.now = 0
	e.seq = 0
	e.nsteps = 0
	e.live = 0
}

// clearEvents zeroes the slice so dropped callback closures are collectable.
func clearEvents(evs []event) {
	for i := range evs {
		evs[i] = event{}
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the number of scheduled events not yet executed,
// daemon events included.
func (e *Engine) Pending() int { return len(e.heap) + len(e.ready) - e.rhead }

// Live returns the number of pending non-daemon events — the work that
// keeps Run going. Daemon observers use it to decide whether to
// reschedule themselves.
func (e *Engine) Live() int { return e.live }

// Schedule runs fn after delay d of simulated time. A negative delay is
// treated as zero (run as soon as the loop resumes, after already-queued
// same-time events).
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// At runs fn at absolute simulated time t. Times in the past are clamped to
// the current time. A nil fn advances the clock without doing work.
func (e *Engine) At(t Time, fn func()) {
	var cfn func(any)
	var arg any
	if fn != nil {
		cfn, arg = callClosure, fn
	}
	e.live++
	if t <= e.now {
		// Current-time events go straight to the ready ring: appended in
		// increasing sequence order, so FIFO order is execution order.
		e.seq++
		e.ready = append(e.ready, event{at: e.now, seq: e.seq, cfn: cfn, arg: arg})
		return
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, cfn: cfn, arg: arg})
}

// ScheduleDaemon runs fn after delay d as a daemon event: it executes in
// the normal (time, sequence) order while non-daemon events remain, but
// it does not keep the simulation alive — Run returns, with the clock at
// the last non-daemon event, even if daemon events are still scheduled,
// and the leftover daemons are never executed. Observability ticks use
// this so periodic sampling can never extend a run's virtual time (an
// overshoot would perturb end-of-run snapshots of time-settled state
// such as the cleaner's debt drain).
func (e *Engine) ScheduleDaemon(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if e.daemonFn == nil {
		e.daemonFn = e.runDaemon
	}
	e.AtCall(e.now.Add(d), e.daemonFn, fn)
	e.live-- // daemons don't count as live work
}

// runDaemon executes a daemon event's callback. Step decremented live
// unconditionally when it popped the event, so compensate first: daemon
// events were never counted as live work.
func (e *Engine) runDaemon(a any) {
	e.live++
	a.(func())()
}

// ScheduleCall runs fn(arg) after delay d. It is Schedule for callers that
// already hold a long-lived fn (typically a bound method stored once at
// construction): passing the per-event state through arg avoids allocating
// a closure per scheduled event. Ordering is identical to Schedule.
func (e *Engine) ScheduleCall(d Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.AtCall(e.now.Add(d), fn, arg)
}

// AtCall runs fn(arg) at absolute simulated time t; see ScheduleCall.
func (e *Engine) AtCall(t Time, fn func(any), arg any) {
	e.live++
	e.seq++
	if t <= e.now {
		e.ready = append(e.ready, event{at: e.now, seq: e.seq, cfn: fn, arg: arg})
		return
	}
	e.push(event{at: t, seq: e.seq, cfn: fn, arg: arg})
}

// Reserve sets aside n consecutive sequence numbers and returns the first.
// A generator that would schedule n events up front can instead reserve
// their numbers at that point and schedule event i later with AtSeq on
// number first+i: each event keeps the (time, sequence) key, and hence
// the execution position, that the up-front loop would have given it.
func (e *Engine) Reserve(n uint64) uint64 {
	first := e.seq + 1
	e.seq += n
	return first
}

// AtSeq runs fn(arg) at absolute simulated time t under a sequence number
// obtained from Reserve. Times in the past are clamped to the current
// time. The event always goes to the heap: the ready ring's FIFO order
// matches sequence order only for numbers drawn when they are appended,
// while next() merges the heap root with the ring head by sequence.
func (e *Engine) AtSeq(t Time, seq uint64, fn func(any), arg any) {
	if t < e.now {
		t = e.now
	}
	e.live++
	e.push(event{at: t, seq: seq, cfn: fn, arg: arg})
}

// push inserts ev into the 4-ary heap.
func (e *Engine) push(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// pop removes and returns the heap minimum.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.heap = h
	if n > 0 {
		// Sift last down from the root, choosing the least of up to four
		// children at each level. The (at, seq) keys of the running minimum
		// ride in locals so each comparison loads one candidate key instead
		// of re-reading two events from the slice.
		i := 0
		lat, lseq := last.at, last.seq
		for {
			c := i*4 + 1
			if c >= n {
				break
			}
			m := c
			mat, mseq := h[c].at, h[c].seq
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if jat, jseq := h[j].at, h[j].seq; jat < mat || (jat == mat && jseq < mseq) {
					m, mat, mseq = j, jat, jseq
				}
			}
			if mat > lat || (mat == lat && mseq > lseq) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// next removes and returns the earliest pending event, honoring the
// (time, sequence) order across the heap and the ready ring. ok is false
// when no events remain.
func (e *Engine) next() (ev event, ok bool) {
	hasReady := e.rhead < len(e.ready)
	hasHeap := len(e.heap) > 0
	switch {
	case !hasReady && !hasHeap:
		return event{}, false
	case !hasReady:
		return e.pop(), true
	case hasHeap:
		// Ready events sit at the current time; a heap event can only
		// precede them when it shares that timestamp with a smaller
		// sequence number (it was scheduled before the clock reached now).
		if root := &e.heap[0]; root.at == e.now && root.seq < e.ready[e.rhead].seq {
			return e.pop(), true
		}
	}
	ev = e.ready[e.rhead]
	e.ready[e.rhead] = event{}
	e.rhead++
	if e.rhead == len(e.ready) {
		e.ready = e.ready[:0]
		e.rhead = 0
	}
	return ev, true
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev, ok := e.next()
	if !ok {
		return false
	}
	e.now = ev.at
	e.nsteps++
	// Decrement unconditionally; a daemon event's runDaemon wrapper
	// compensates, so live keeps counting only non-daemon work.
	e.live--
	if ev.cfn != nil {
		ev.cfn(ev.arg)
	}
	return true
}

// Run executes events until no live (non-daemon) work remains. Leftover
// daemon events are abandoned without advancing the clock.
func (e *Engine) Run() {
	for e.live > 0 {
		if !e.Step() {
			break
		}
	}
}
