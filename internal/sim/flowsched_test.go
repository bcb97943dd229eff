package sim

import "testing"

// drainPipe floods a scheduled pipe with per-flow transfers and returns the
// bytes each flow completed by the time the engine drains.
func drainPipe(t *testing.T, q FlowQueue, flows, chunks int, chunk int64, weights []float64, reserved []float64) []int64 {
	t.Helper()
	e := NewEngine()
	p := NewPipe(e, "p", 1<<20) // 1 MiB/s
	p.SetQueue(q)
	done := make([]int64, flows)
	for f := 0; f < flows; f++ {
		w, r := 1.0, 0.0
		if weights != nil {
			w = weights[f]
		}
		if reserved != nil {
			r = reserved[f]
		}
		p.SetFlow(f, w, r)
	}
	// All transfers submitted at t=0: the first seizes the pipe, the rest
	// contend in the scheduler.
	for c := 0; c < chunks; c++ {
		for f := 0; f < flows; f++ {
			f := f
			p.TransferFlow(f, chunk, func() { done[f] += chunk })
		}
	}
	e.Run()
	return done
}

func TestDRRWeightedShares(t *testing.T) {
	// Two flows, weights 1 and 3, equal backlogs of equal-size chunks.
	// Run the engine for a bounded horizon and check in-progress shares.
	e := NewEngine()
	p := NewPipe(e, "p", 1<<20)
	p.SetQueue(NewDRRQueue(64 << 10))
	p.SetFlow(0, 1, 0)
	p.SetFlow(1, 3, 0)
	var got [2]int64
	chunk := int64(64 << 10)
	for c := 0; c < 64; c++ {
		for f := 0; f < 2; f++ {
			f := f
			p.TransferFlow(f, chunk, func() { got[f] += chunk })
		}
	}
	// Stop halfway through the total backlog so both flows are still
	// backlogged: shares should track weights 1:3.
	e.RunFor(2 * Second) // 2 MiB of 8 MiB total
	if got[0] == 0 || got[1] == 0 {
		t.Fatalf("a flow starved: %v", got)
	}
	ratio := float64(got[1]) / float64(got[0])
	if ratio < 2.0 || ratio > 4.0 {
		t.Fatalf("weight-3 flow got %.2fx the weight-1 flow, want ~3x (%v)", ratio, got)
	}
}

func TestDRRWorkConservingAndComplete(t *testing.T) {
	done := drainPipe(t, NewDRRQueue(64<<10), 3, 16, 32<<10, nil, nil)
	for f, d := range done {
		if d != 16*(32<<10) {
			t.Fatalf("flow %d completed %d bytes, want %d", f, d, 16*(32<<10))
		}
	}
}

func TestReservationPriority(t *testing.T) {
	// Flow 0 reserves half the pipe; flow 1 floods it. While both are
	// backlogged, flow 0 should see at least ~its reserved share even at
	// weight parity against a heavier backlog.
	e := NewEngine()
	p := NewPipe(e, "p", 1<<20)
	p.SetQueue(NewReservationQueue(e, 64<<10))
	p.SetFlow(0, 1, float64(512<<10)) // reserve 512 KiB/s of 1 MiB/s
	p.SetFlow(1, 1, 0)
	var got [2]int64
	chunk := int64(32 << 10)
	for c := 0; c < 16; c++ {
		p.TransferFlow(0, chunk, func() { got[0] += chunk })
	}
	for c := 0; c < 128; c++ {
		p.TransferFlow(1, chunk, func() { got[1] += chunk })
	}
	e.RunFor(1 * Second)
	// In 1s the reserved flow should have moved close to min(backlog,
	// 512 KiB): all 16 chunks = 512 KiB.
	if got[0] < 448<<10 {
		t.Fatalf("reserved flow moved %d bytes in 1s, want >= %d", got[0], 448<<10)
	}
	// Work conservation: the pipe never idles, so total ~1 MiB.
	if total := got[0] + got[1]; total < 960<<10 {
		t.Fatalf("pipe idled: only %d bytes total in 1s", total)
	}
}

func TestReservationWorkConservingWhenReservedIdle(t *testing.T) {
	// The reserved flow submits nothing: the unreserved flow gets the
	// whole pipe (reservation must not strand capacity).
	e := NewEngine()
	p := NewPipe(e, "p", 1<<20)
	p.SetQueue(NewReservationQueue(e, 64<<10))
	p.SetFlow(0, 1, float64(512<<10))
	p.SetFlow(1, 1, 0)
	var moved int64
	for c := 0; c < 32; c++ {
		p.TransferFlow(1, 32<<10, func() { moved += 32 << 10 })
	}
	e.Run()
	if moved != 32*(32<<10) {
		t.Fatalf("unreserved flow moved %d, want %d", moved, 32*(32<<10))
	}
	if want := Duration(float64(32*(32<<10)) / float64(1<<20) * float64(Second)); e.Now() != Time(want) {
		t.Fatalf("drain took %v, want %v (capacity stranded)", e.Now(), want)
	}
}

func TestServerSchedulerFlows(t *testing.T) {
	// A 1-slot server with a DRR queue: both flows complete all visits,
	// and the weight-heavy flow finishes its backlog first.
	e := NewEngine()
	s := NewServer(e, "s", 1)
	s.SetQueue(NewDRRQueue(int64(Millisecond)))
	s.SetFlow(0, 1, 0)
	s.SetFlow(1, 4, 0)
	var finish [2]Time
	served := 0
	for c := 0; c < 20; c++ {
		for f := 0; f < 2; f++ {
			f := f
			s.VisitFlow(f, Millisecond, func() { finish[f] = e.Now(); served++ })
		}
	}
	e.Run()
	if served != 40 {
		t.Fatalf("served %d visits, want 40", served)
	}
	if finish[1] >= finish[0] {
		t.Fatalf("weight-4 flow finished at %v, after weight-1 flow at %v", finish[1], finish[0])
	}
}

func TestScheduledFIFOUnreachedIsIdentical(t *testing.T) {
	// Visits and transfers through the -1 flow on resources WITHOUT a
	// scheduler must behave exactly like the plain calls.
	e := NewEngine()
	s := NewServer(e, "s", 1)
	p := NewPipe(e, "p", 1<<20)
	var order []int
	s.VisitFlow(-1, Millisecond, func() { order = append(order, 1) })
	s.Visit(Millisecond, func() { order = append(order, 2) })
	p.TransferFlow(-1, 1<<20, func() { order = append(order, 3) })
	p.Transfer(1<<20, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if p.Backlog() != 0 || s.QueueLen() != 0 {
		t.Fatalf("resources not drained")
	}
}
