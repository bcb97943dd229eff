package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAmongSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested schedule times: %v", hits)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Duration(i)*10, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
	e.RunFor(50)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestEnginePastEventClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		// Scheduling in the past must execute at current time, not rewind.
		e.At(10, func() {
			if e.Now() != 100 {
				t.Errorf("past event ran at %d, want clamped to 100", e.Now())
			}
		})
	})
	e.Run()
}

func TestEngineNegativeDelay(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay: ran=%v now=%d", ran, e.Now())
	}
}

func TestServerSingleSlotQueueing(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "s", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		s.Visit(10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	// One slot: the three visits occupy it back to back, 30 busy in all.
	want := []Time{10, 20, 30}
	if !slices.Equal(done, want) {
		t.Fatalf("completions %v, want %v", done, want)
	}
}

func TestServerParallelSlots(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "s", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		s.Visit(10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	// Two in parallel finish at 10, next two at 20.
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
}

func TestServerZeroService(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "s", 1)
	n := 0
	s.Visit(0, func() { n++ })
	s.Visit(-5, func() { n++ })
	e.Run()
	if n != 2 {
		t.Fatalf("n = %d", n)
	}
}

func TestPipeSerializesTransfers(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "p", 1000) // 1000 B/s => 1 byte per ms
	var done []Time
	p.Transfer(1000, func() { done = append(done, e.Now()) }) // 1s
	p.Transfer(500, func() { done = append(done, e.Now()) })  // +0.5s
	e.Run()
	if done[0] != Time(Second) {
		t.Fatalf("first transfer at %v", done[0])
	}
	if done[1] != Time(Second+Second/2) {
		t.Fatalf("second transfer at %v", done[1])
	}
	if p.Moved() != 1500 {
		t.Fatalf("moved = %d", p.Moved())
	}
}

func TestPipeIdleGap(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "p", 1000)
	var second Time
	p.Transfer(100, nil) // done at 0.1s
	e.Schedule(Duration(Second), func() {
		// Pipe idle since 0.1s; a new transfer starts now.
		p.Transfer(100, func() { second = e.Now() })
	})
	e.Run()
	if second != Time(Second+Second/10) {
		t.Fatalf("second done at %v, want 1.1s", second)
	}
}

func TestPipeBacklog(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "p", 1000)
	if p.Backlog() != 0 {
		t.Fatal("idle pipe has backlog")
	}
	p.Transfer(1000, nil)
	if got := p.Backlog(); got != Duration(Second) {
		t.Fatalf("backlog = %v, want 1s", got)
	}
	e.Run()
	if p.Backlog() != 0 {
		t.Fatal("drained pipe has backlog")
	}
}

func TestPipeZeroBytes(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "p", 1000)
	fired := false
	p.Transfer(0, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Fatalf("zero transfer: fired=%v now=%d", fired, e.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(1, 2)
	b := NewRNG(1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	da := NewRNG(1, 2).Derive("net")
	db := NewRNG(1, 2).Derive("net")
	for i := 0; i < 100; i++ {
		if da.Uint64() != db.Uint64() {
			t.Fatal("derived RNGs diverged")
		}
	}
	dc := NewRNG(1, 2).Derive("flash")
	same := true
	for i := 0; i < 10; i++ {
		if da.Uint64() != dc.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different labels produced identical streams")
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := NewRNG(7, 7)
	d := LogNormal{Median: 100 * Microsecond, Sigma: 0.25}
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(r))
	}
	got := sum / float64(n)
	want := float64(d.Mean())
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("empirical mean %.0f, analytic %.0f", got, want)
	}
}

func TestSpikedTail(t *testing.T) {
	r := NewRNG(9, 9)
	d := Spiked{Base: Const{100}, P: 0.01, Spike: Const{10000}}
	spikes := 0
	n := 50000
	for i := 0; i < n; i++ {
		if d.Sample(r) > 1000 {
			spikes++
		}
	}
	frac := float64(spikes) / float64(n)
	if frac < 0.005 || frac > 0.02 {
		t.Fatalf("spike fraction %.4f, want ~0.01", frac)
	}
	if d.Mean() != 200 {
		t.Fatalf("mean = %v, want 200", d.Mean())
	}
}

// Property: pipe completion times are non-decreasing and total busy time
// equals bytes/bandwidth regardless of the submission pattern.
func TestPipeCompletionMonotonic(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := NewEngine()
		p := NewPipe(e, "p", 1e6)
		var last Time = -1
		ok := true
		for _, s := range sizes {
			n := int64(s)
			p.Transfer(n, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a k-slot server never has more than k jobs in service and
// serves every submitted job exactly once.
func TestServerConservation(t *testing.T) {
	f := func(services []uint8, slots uint8) bool {
		k := int(slots%4) + 1
		e := NewEngine()
		s := NewServer(e, "s", k)
		completed := 0
		for _, sv := range services {
			s.Visit(Duration(sv), func() { completed++ })
			if s.Busy() > k {
				return false
			}
		}
		e.Run()
		return completed == len(services)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{333 * Microsecond, "333.0µs"},
		{1400 * Microsecond, "1.40ms"},
		{2 * Second, "2.000s"},
		{-333 * Microsecond, "-333.0µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestEngineDaemonEvents(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if e.Live() > 0 {
			e.ScheduleDaemon(10, tick)
		}
	}
	e.ScheduleDaemon(10, tick)
	var last Time
	e.Schedule(35, func() { last = e.Now() })
	e.Run()
	// The daemon fires at 10, 20, 30 while the workload event is pending;
	// the tick scheduled for 40 is abandoned, and the clock stops at the
	// last live event.
	if want := []Time{10, 20, 30}; len(ticks) != len(want) {
		t.Fatalf("daemon ticks at %v, want %v", ticks, want)
	} else {
		for i, w := range want {
			if ticks[i] != w {
				t.Fatalf("daemon ticks at %v, want %v", ticks, want)
			}
		}
	}
	if last != 35 || e.Now() != 35 {
		t.Fatalf("run ended at %d (workload at %d), want 35", e.Now(), last)
	}
	if e.Pending() != 0 {
		// The abandoned daemon at t=40 is dropped by Run's live check but
		// remains pending until Reset.
		if e.Pending() != 1 || e.Live() != 0 {
			t.Fatalf("pending %d live %d after run, want 1 daemon leftover", e.Pending(), e.Live())
		}
	}
}

func TestEngineDaemonOnlyRunReturns(t *testing.T) {
	e := NewEngine()
	fired := false
	e.ScheduleDaemon(5, func() { fired = true })
	e.Run() // no live work: must return immediately without executing daemons
	if fired {
		t.Fatal("daemon executed with no live work")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %d with no live work", e.Now())
	}
	e.Reset()
	if e.Pending() != 0 || e.Live() != 0 {
		t.Fatalf("reset left pending=%d live=%d", e.Pending(), e.Live())
	}
}
