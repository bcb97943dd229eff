package netsim

import (
	"testing"

	"essdsim/internal/obs"
	"essdsim/internal/sim"
)

func testNet(eng *sim.Engine) *Network {
	return New(eng, Config{
		HopLatency: sim.Const{V: 50 * sim.Microsecond},
		UplinkBW:   1e9,
		DownlinkBW: 2e9,
	}, sim.NewRNG(1, 1))
}

func TestSendUpTiming(t *testing.T) {
	eng := sim.NewEngine()
	n := testNet(eng)
	var at sim.Time
	n.NewFlow("t").SendUp(1e6, func() { at = eng.Now() }) // 1 MB at 1 GB/s = 1 ms, + 50µs hop
	eng.Run()
	want := sim.Time(sim.Millisecond + 50*sim.Microsecond)
	if at != want {
		t.Fatalf("SendUp done at %v, want %v", sim.Duration(at), sim.Duration(want))
	}
	if n.MovedUp() != 1e6 {
		t.Fatalf("moved up = %d", n.MovedUp())
	}
}

func TestSendDownUsesDownlink(t *testing.T) {
	eng := sim.NewEngine()
	n := testNet(eng)
	var at sim.Time
	n.NewFlow("t").SendDown(1e6, func() { at = eng.Now() }) // 1 MB at 2 GB/s = 0.5 ms + hop
	eng.Run()
	want := sim.Time(sim.Millisecond/2 + 50*sim.Microsecond)
	if at != want {
		t.Fatalf("SendDown done at %v, want %v", sim.Duration(at), sim.Duration(want))
	}
}

func TestDirectionsIndependent(t *testing.T) {
	eng := sim.NewEngine()
	n := testNet(eng)
	f := n.NewFlow("t")
	var up, down sim.Time
	f.SendUp(1e6, func() { up = eng.Now() })
	f.SendDown(1e6, func() { down = eng.Now() })
	eng.Run()
	// Full duplex: downlink traffic does not queue behind uplink.
	if down > up {
		t.Fatalf("downlink serialized behind uplink: up=%v down=%v",
			sim.Duration(up), sim.Duration(down))
	}
}

func TestUplinkSerializes(t *testing.T) {
	eng := sim.NewEngine()
	n := testNet(eng)
	var second sim.Time
	n.NewFlow("a").SendUp(1e6, nil)
	n.NewFlow("b").SendUp(1e6, func() { second = eng.Now() })
	eng.Run()
	if second < sim.Time(2*sim.Millisecond) {
		t.Fatalf("second transfer at %v, want >= 2ms", sim.Duration(second))
	}
}

func TestHop(t *testing.T) {
	eng := sim.NewEngine()
	n := testNet(eng)
	var at sim.Time
	n.Hop(func() { at = eng.Now() })
	eng.Run()
	if at != sim.Time(50*sim.Microsecond) {
		t.Fatalf("hop at %v", sim.Duration(at))
	}
	if d := n.HopSample(); d != 50*sim.Microsecond {
		t.Fatalf("hop sample %v", d)
	}
}

// TestBacklogs reads each direction's committed queueing delay through
// the fabric's probe gauges.
func TestBacklogs(t *testing.T) {
	eng := sim.NewEngine()
	n := testNet(eng)
	p := obs.NewProber(100 * sim.Microsecond)
	n.InstallProbes(p)
	p.Attach(eng)
	n.NewFlow("t").SendUp(1e6, nil) // 1 ms of uplink backlog
	eng.Run()
	up, down := p.Series("net/up/backlog_s"), p.Series("net/down/backlog_s")
	if len(up) == 0 || up[0].V <= 0 {
		t.Fatalf("uplink backlog not visible: %v", up)
	}
	for _, pt := range down {
		if pt.V != 0 {
			t.Fatalf("downlink backlog %v at %v, want zero", pt.V, pt.T)
		}
	}
}

func TestJitteredHops(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{
		HopLatency: sim.LogNormal{Median: 50 * sim.Microsecond, Sigma: 0.3},
		UplinkBW:   1e9,
		DownlinkBW: 1e9,
	}, sim.NewRNG(2, 2))
	seen := map[sim.Duration]bool{}
	for i := 0; i < 20; i++ {
		seen[n.HopSample()] = true
	}
	if len(seen) < 10 {
		t.Fatalf("hop latency not jittered: %d distinct values", len(seen))
	}
}
