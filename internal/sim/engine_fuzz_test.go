package sim

import (
	"cmp"
	"slices"
	"testing"
)

// orderRun drives an engine from fuzz input and keeps, for every event it
// schedules, the (time, sequence) key the engine's contract gives it:
// every At, AtCall, Schedule, ScheduleCall and ScheduleDaemon takes the
// next sequence number, Reserve sets aside a block of them, times in the
// past run at the current time, and AtSeq runs on a reserved number.
type orderRun struct {
	e      *Engine
	data   []byte
	pos    int
	seq    uint64 // the engine's sequence counter, mirrored
	events []orderEvent
	order  []int // event ids in execution order
	bad    string
}

type orderEvent struct {
	at     Time
	seq    uint64
	daemon bool
	ran    bool
}

// orderBudget caps the events one input schedules.
const orderBudget = 400

// byte returns the next input byte, or 0 once the input is spent.
func (r *orderRun) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// delay draws an offset from now: mostly a few ns either side of zero, so
// same-time and past events are common, sometimes a longer step.
func (r *orderRun) delay() Duration {
	b := r.byte()
	d := Duration(b&7) - 2
	if b&0x80 != 0 {
		d *= 97
	}
	return d
}

// add records a new event and returns its id.
func (r *orderRun) add(at Time, seq uint64, daemon bool) int {
	if at < r.e.Now() {
		at = r.e.Now()
	}
	r.events = append(r.events, orderEvent{at: at, seq: seq, daemon: daemon})
	return len(r.events) - 1
}

// fire runs event id: it records the execution, then schedules the
// event's children from the input.
func (r *orderRun) fire(id int) {
	ev := &r.events[id]
	if ev.ran || r.e.Now() != ev.at {
		r.bad = "event ran twice or off its time"
	}
	ev.ran = true
	r.order = append(r.order, id)
	r.spawn(int(r.byte() % 4))
}

// spawn schedules n events of kinds the input picks.
func (r *orderRun) spawn(n int) {
	for ; n > 0 && len(r.events) < orderBudget; n-- {
		kind, d := r.byte()%6, r.delay()
		now := r.e.Now()
		if kind != 5 {
			r.seq++
		}
		switch kind {
		case 0:
			id := r.add(now.Add(d), r.seq, false)
			r.e.At(now.Add(d), func() { r.fire(id) })
		case 1:
			id := r.add(now.Add(d), r.seq, false)
			r.e.AtCall(now.Add(d), r.fireArg, id)
		case 2:
			id := r.add(now.Add(max(d, 0)), r.seq, false)
			r.e.ScheduleCall(d, r.fireArg, id)
		case 3:
			id := r.add(now.Add(max(d, 0)), r.seq, false)
			r.e.Schedule(d, func() { r.fire(id) })
		case 4:
			id := r.add(now.Add(max(d, 0)), r.seq, true)
			r.e.ScheduleDaemon(d, func() { r.fire(id) })
		case 5:
			r.reserve(1+int(r.byte()%4), d)
		}
	}
}

func (r *orderRun) fireArg(a any) { r.fire(a.(int)) }

// reserve sets aside n sequence numbers and schedules the block's first
// event d from now; each block event schedules the next when it runs, at
// a non-negative gap, as the open-loop generators do.
func (r *orderRun) reserve(n int, d Duration) {
	base := r.e.Reserve(uint64(n))
	if base != r.seq+1 {
		r.bad = "Reserve did not return the next sequence number"
	}
	r.seq += uint64(n)
	var arrive func(k int, at Time)
	arrive = func(k int, at Time) {
		id := r.add(at, base+uint64(k), false)
		r.e.AtSeq(at, base+uint64(k), func(any) {
			r.fire(id)
			if k+1 < n {
				arrive(k+1, r.e.Now().Add(Duration(r.byte()%3)))
			}
		}, nil)
	}
	arrive(0, r.e.Now().Add(d))
}

// run schedules the input's root events on e, runs it, and checks the
// execution order against the scheduled keys sorted by (time, sequence).
func (r *orderRun) run(t *testing.T) {
	r.spawn(1 + int(r.byte()%8))
	r.e.Run()
	if r.bad != "" {
		t.Fatal(r.bad)
	}
	want := slices.Clone(r.order)
	slices.SortFunc(want, func(a, b int) int {
		ea, eb := r.events[a], r.events[b]
		return cmp.Or(cmp.Compare(ea.at, eb.at), cmp.Compare(ea.seq, eb.seq))
	})
	if !slices.Equal(r.order, want) {
		t.Fatalf("execution order %v, want %v by (time, sequence)", r.order, want)
	}
	// Run stops when no live work remains: whatever did not run is a
	// daemon after the last event that did, and still pending.
	left := 0
	for id, ev := range r.events {
		if ev.ran {
			continue
		}
		left++
		if !ev.daemon {
			t.Fatalf("event %d (at %d, seq %d) never ran", id, ev.at, ev.seq)
		}
		if len(r.order) == 0 {
			continue
		}
		if last := r.events[r.order[len(r.order)-1]]; ev.at < last.at || ev.at == last.at && ev.seq < last.seq {
			t.Fatalf("daemon %d (at %d, seq %d) precedes the last event run and was skipped", id, ev.at, ev.seq)
		}
	}
	if r.e.Pending() != left || r.e.Live() != 0 {
		t.Fatalf("after Run: pending %d live %d, want %d daemons and no live work", r.e.Pending(), r.e.Live(), left)
	}
}

// FuzzEngineOrder checks that the engine runs events in (time, sequence)
// order across the heap, the ready ring and reserved sequence numbers:
// At, AtCall, ScheduleCall, Schedule, ScheduleDaemon and Reserve+AtSeq,
// same-time and past events, and events scheduled from inside callbacks.
// The same input then runs again on the engine after Reset, which must
// drop the leftover daemons and reproduce the order exactly.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 2, 1, 5, 2, 3, 3, 4, 4, 0x85, 5, 2, 3, 1, 2, 0, 2, 2, 3, 3})
	f.Add([]byte{3, 5, 0x82, 3, 2, 3, 5, 2, 2, 1, 1, 1, 3, 4, 2, 3, 0, 0, 3, 5, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		first := &orderRun{e: e, data: data}
		first.run(t)
		e.Reset()
		again := &orderRun{e: e, data: data}
		again.run(t)
		if !slices.Equal(again.order, first.order) || e.Steps() != uint64(len(again.order)) {
			t.Fatalf("after Reset: order %v (%d steps), want %v", again.order, e.Steps(), first.order)
		}
	})
}
