package sim

import (
	"slices"
	"testing"
)

// reservedMix is a random event mix with one block of n events at
// non-decreasing offsets from a reservation point. Up front, the block is
// scheduled with At when the reservation point is reached; lazily, the
// point reserves n sequence numbers and each block event schedules its
// successor with AtSeq. Every event's children are a function of its id
// alone, so the two modes produce the same trace exactly when they run
// events in the same order.
type reservedMix struct {
	e     *Engine
	seed  uint64
	lazy  bool
	block []Duration
	start Time
	base  uint64
	order []int64
	fire  func(any)
}

const blockID = 1 << 40

// spawn schedules the children of event id: At, AtCall, zero-delay
// Schedule and daemon events, some at the current time.
func (m *reservedMix) spawn(id int64, depth int) {
	if depth >= 3 {
		return
	}
	r := NewRNG(m.seed, uint64(id))
	n := int64(r.IntN(3))
	for c := int64(0); c < n; c++ {
		child := id*4 + c + 1
		d := Duration(0)
		if r.IntN(2) == 0 {
			d = Duration(r.IntN(50))
		}
		fn := func() { m.run(child, depth+1) }
		switch r.IntN(4) {
		case 0:
			m.e.At(m.e.Now().Add(d), fn)
		case 1:
			m.e.AtCall(m.e.Now().Add(d), func(any) { fn() }, nil)
		case 2:
			m.e.Schedule(0, fn)
		case 3:
			m.e.ScheduleDaemon(d, fn)
		}
	}
}

func (m *reservedMix) run(id int64, depth int) {
	m.order = append(m.order, id)
	m.spawn(id, depth)
}

// reserve is the reservation point: it starts the block at the current time.
func (m *reservedMix) reserve() {
	m.start = m.e.Now()
	if !m.lazy {
		for i, off := range m.block {
			i := int64(i)
			m.e.At(m.start.Add(off), func() { m.run(blockID+i, 1) })
		}
		return
	}
	m.base = m.e.Reserve(uint64(len(m.block)))
	m.fire = m.arrive
	m.e.AtSeq(m.start.Add(m.block[0]), m.base, m.fire, 0)
}

// arrive runs block event i, then schedules event i+1 on its reserved number.
func (m *reservedMix) arrive(a any) {
	i := a.(int)
	m.run(blockID+int64(i), 1)
	if i++; i < len(m.block) {
		m.e.AtSeq(m.start.Add(m.block[i]), m.base+uint64(i), m.fire, i)
	}
}

// runReservedMix builds and runs the mix for seed, returning the execution
// order, the step count and the final clock.
func runReservedMix(seed uint64, lazy bool) ([]int64, uint64, Time) {
	r := NewRNG(seed, 99)
	m := &reservedMix{e: NewEngine(), seed: seed, lazy: lazy}
	n := 1 + r.IntN(40)
	var off Duration
	for i := 0; i < n; i++ {
		if i > 0 && r.IntN(3) > 0 {
			off += Duration(r.IntN(20))
		}
		m.block = append(m.block, off)
	}
	// A daemon probe that reschedules while live work remains, like obs's.
	var probe func()
	probe = func() {
		m.order = append(m.order, -1)
		if m.e.Live() > 0 {
			m.e.ScheduleDaemon(7, probe)
		}
	}
	m.e.ScheduleDaemon(0, probe)
	roots := 1 + r.IntN(12)
	at := r.IntN(roots + 1) // position of the reservation among the roots
	upFront := r.IntN(4) == 0
	for k := 0; k <= roots; k++ {
		if k == at {
			if upFront {
				m.reserve()
			} else {
				m.e.At(Time(r.IntN(100)), m.reserve)
			}
			continue
		}
		id := int64(k)
		m.e.At(Time(r.IntN(100)), func() { m.run(id, 0) })
	}
	m.e.Run()
	return m.order, m.e.Steps(), m.e.Now()
}

// TestReservationMatchesUpFront pins the Reserve/AtSeq contract: a block
// scheduled lazily on reserved sequence numbers runs in exactly the order
// the same block scheduled up front with At would, among At, AtCall,
// zero-delay Schedule and daemon events, including block events at the
// reservation's own timestamp. The daemon-only tail still ends Run.
func TestReservationMatchesUpFront(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		want, wantSteps, wantNow := runReservedMix(seed, false)
		got, gotSteps, gotNow := runReservedMix(seed, true)
		if !slices.Equal(got, want) || gotSteps != wantSteps || gotNow != wantNow {
			t.Fatalf("seed %d: lazy order %v (steps %d, now %d)\nwant up-front %v (steps %d, now %d)",
				seed, got, gotSteps, gotNow, want, wantSteps, wantNow)
		}
	}
}

// TestReservationAtReadyTimestamp checks the merge with the ready ring:
// a reserved event at the current time runs before ready events scheduled
// after its reservation and after those scheduled before it.
func TestReservationAtReadyTimestamp(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(0, func() { order = append(order, "before") })
	base := e.Reserve(1)
	e.Schedule(0, func() { order = append(order, "after") })
	e.AtSeq(0, base, func(any) { order = append(order, "reserved") }, nil)
	e.AtSeq(-5, base, func(any) {}, nil) // clamped to now, same key
	e.Run()
	if want := []string{"before", "reserved", "after"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if e.Now() != 0 || e.Steps() != 4 {
		t.Fatalf("now %d steps %d, want 0 and 4", e.Now(), e.Steps())
	}
}

// TestResetClearsReservations checks a reset engine hands out sequence
// numbers from the start again, as a new one does.
func TestResetClearsReservations(t *testing.T) {
	e := NewEngine()
	if first := e.Reserve(5); first != 1 {
		t.Fatalf("first reservation = %d, want 1", first)
	}
	if next := e.Reserve(3); next != 6 {
		t.Fatalf("second reservation = %d, want 6", next)
	}
	e.AtSeq(10, 2, func(any) {}, nil)
	e.Reset()
	if e.Pending() != 0 || e.Live() != 0 {
		t.Fatalf("reset left pending=%d live=%d", e.Pending(), e.Live())
	}
	if first := e.Reserve(2); first != 1 {
		t.Fatalf("reservation after reset = %d, want 1", first)
	}
	var order []int
	e.AtSeq(0, 2, func(any) { order = append(order, 2) }, nil)
	e.At(0, func() { order = append(order, 3) })
	e.AtSeq(0, 1, func(any) { order = append(order, 1) }, nil)
	e.Run()
	if !slices.Equal(order, []int{1, 2, 3}) {
		t.Fatalf("order after reset %v, want [1 2 3]", order)
	}
}
