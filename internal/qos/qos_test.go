package qos

import (
	"testing"
	"testing/quick"

	"essdsim/internal/sim"
)

func TestBucketImmediateGrant(t *testing.T) {
	eng := sim.NewEngine()
	b := NewTokenBucket(eng, 1000, 500)
	var granted float64
	b.Take(500, func() { granted += 500 })
	if granted != 500 {
		t.Fatalf("burst-covered take: granted %v immediately, want 500", granted)
	}
}

func TestBucketQueuesWhenEmpty(t *testing.T) {
	eng := sim.NewEngine()
	b := NewTokenBucket(eng, 1000, 500) // 1000 tokens/s
	b.Take(500, nil)                    // drain the burst
	var at sim.Time
	b.Take(250, func() { at = eng.Now() })
	eng.Run()
	// 250 tokens at 1000/s = 250 ms.
	want := sim.Time(250 * sim.Millisecond)
	if at < want-sim.Time(sim.Millisecond) || at > want+sim.Time(2*sim.Millisecond) {
		t.Fatalf("grant at %v, want ≈250ms", sim.Duration(at))
	}
	if b.StallTime() <= 0 {
		t.Fatal("stall time not recorded")
	}
}

func TestBucketFIFO(t *testing.T) {
	eng := sim.NewEngine()
	b := NewTokenBucket(eng, 1000, 100)
	b.Take(100, nil)
	var order []int
	b.Take(50, func() { order = append(order, 1) })
	b.Take(10, func() { order = append(order, 2) }) // small but must wait its turn
	b.Take(40, func() { order = append(order, 3) })
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("grant order %v, want FIFO", order)
	}
}

func TestBucketLongRunRate(t *testing.T) {
	eng := sim.NewEngine()
	rate := 1e6 // 1 MB/s
	b := NewTokenBucket(eng, rate, 64e3)
	var completed float64
	var last sim.Time
	var pump func()
	n := 0
	pump = func() {
		if n >= 200 {
			return
		}
		n++
		b.Take(32e3, func() {
			completed += 32e3
			last = eng.Now()
			pump()
		})
	}
	pump()
	eng.Run()
	secs := sim.Duration(last).Seconds()
	got := completed / secs
	if got < rate*0.95 || got > rate*1.15 {
		t.Fatalf("long-run rate %.0f, want ≈%.0f", got, rate)
	}
}

func TestBucketOversizedRequest(t *testing.T) {
	eng := sim.NewEngine()
	b := NewTokenBucket(eng, 1000, 100) // request bigger than burst
	var at1, at2 sim.Time = -1, -1
	b.Take(1000, func() { at1 = eng.Now() })
	b.Take(100, func() { at2 = eng.Now() })
	eng.Run()
	if at1 < 0 || at2 < 0 {
		t.Fatal("oversized request starved the bucket")
	}
	// The oversized take is granted against a negative balance almost
	// immediately (the bucket started full)...
	if at1 > sim.Time(5*sim.Millisecond) {
		t.Fatalf("oversized granted at %v, want ≈0", sim.Duration(at1))
	}
	// ...and the deficit delays the next request by ≈(900+100)/1000 s.
	if at2 < sim.Time(950*sim.Millisecond) || at2 > sim.Time(1100*sim.Millisecond) {
		t.Fatalf("post-deficit grant at %v, want ≈1s", sim.Duration(at2))
	}
}

func TestBucketZeroTake(t *testing.T) {
	eng := sim.NewEngine()
	b := NewTokenBucket(eng, 1000, 100)
	ok := false
	b.Take(0, func() { ok = true })
	if !ok {
		t.Fatal("zero take must complete synchronously")
	}
}

func TestSetRateThrottles(t *testing.T) {
	eng := sim.NewEngine()
	b := NewTokenBucket(eng, 1e6, 1000)
	b.Take(1000, nil) // drain burst
	b.SetRate(1e3)
	var at sim.Time
	b.Take(1000, func() { at = eng.Now() })
	eng.Run()
	// 1000 tokens at 1e3/s = 1 s.
	if at < sim.Time(900*sim.Millisecond) {
		t.Fatalf("throttled grant at %v, want ≈1s", sim.Duration(at))
	}
	if b.Rate() != 1e3 {
		t.Fatalf("rate = %v", b.Rate())
	}
}

// Property: tokens granted never exceed burst + rate×elapsed (conservation).
func TestBucketConservation(t *testing.T) {
	f := func(takes []uint16) bool {
		eng := sim.NewEngine()
		rate, burst := 1e5, 5e3
		b := NewTokenBucket(eng, rate, burst)
		var lastGrant sim.Time
		var granted float64
		for _, tk := range takes {
			n := float64(tk%2000) + 1
			b.Take(n, func() { granted += n; lastGrant = eng.Now() })
		}
		eng.Run()
		elapsed := sim.Duration(lastGrant).Seconds()
		return granted <= burst+rate*elapsed+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowLimiterEngagesOnce(t *testing.T) {
	eng := sim.NewEngine()
	b := NewTokenBucket(eng, 3e9, 1e6)
	l := &FlowLimiter{DebtThreshold: 1000, ThrottledRate: 1e6}
	l.Observe(eng.Now(), 500, b)
	if l.Engaged() {
		t.Fatal("engaged below threshold")
	}
	l.Observe(eng.Now(), 1500, b)
	if !l.Engaged() {
		t.Fatal("did not engage above threshold")
	}
	if b.Rate() != 1e6 {
		t.Fatalf("bucket rate %v, want throttled 1e6", b.Rate())
	}
	// Sticky: lower debt does not disengage, rate is not restored.
	b.SetRate(5e5)
	l.Observe(eng.Now(), 0, b)
	if b.Rate() != 5e5 {
		t.Fatal("limiter re-clamped after engagement")
	}
}

func TestFlowLimiterDisabled(t *testing.T) {
	eng := sim.NewEngine()
	b := NewTokenBucket(eng, 3e9, 1e6)
	l := &FlowLimiter{DebtThreshold: 0, ThrottledRate: 1e6}
	l.Observe(eng.Now(), 1<<40, b)
	if l.Engaged() {
		t.Fatal("disabled limiter engaged")
	}
}
