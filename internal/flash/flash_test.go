package flash

import (
	"testing"

	"essdsim/internal/sim"
)

func testConfig() Config {
	return Config{
		Channels:       2,
		DiesPerChannel: 2,
		PlanesPerDie:   2,
		PagesPerBlock:  4,
		BlocksPerPlane: 8,
		PageSize:       16 << 10,
		ReadLatency:    40 * sim.Microsecond,
		ProgramLatency: 200 * sim.Microsecond,
		EraseLatency:   2 * sim.Millisecond,
		ChannelBW:      1e9,
	}
}

func TestConfigDerived(t *testing.T) {
	c := testConfig()
	if c.Dies() != 4 {
		t.Fatalf("dies = %d", c.Dies())
	}
	if c.ProgramUnitBytes() != 32<<10 {
		t.Fatalf("unit = %d", c.ProgramUnitBytes())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.DiesPerChannel = 0 },
		func(c *Config) { c.PlanesPerDie = 0 },
		func(c *Config) { c.PagesPerBlock = 0 },
		func(c *Config) { c.PageSize = 256 },
		func(c *Config) { c.ReadLatency = 0 },
		func(c *Config) { c.ProgramLatency = -1 },
		func(c *Config) { c.EraseLatency = 0 },
		func(c *Config) { c.ChannelBW = 0 },
	}
	for i, mutate := range cases {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestReadPageTiming(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(eng, testConfig(), sim.NewRNG(1, 1))
	var done sim.Time
	a.ReadPage(0, func() { done = eng.Now() })
	eng.Run()
	// tR 40µs + 16KiB over 1 GB/s = 16.384µs
	want := sim.Time(40*sim.Microsecond) + sim.Time((16<<10)*1e9/1e9)
	if done < want-sim.Time(sim.Microsecond) || done > want+sim.Time(20*sim.Microsecond) {
		t.Fatalf("read done at %v, want ≈ %v", sim.Duration(done), sim.Duration(want))
	}
	if a.Counters().PageReads != 1 {
		t.Fatal("read counter")
	}
}

func TestDieSerializesOps(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(eng, testConfig(), sim.NewRNG(1, 1))
	var first, second sim.Time
	a.ReadPage(0, func() { first = eng.Now() })
	a.ReadPage(0, func() { second = eng.Now() })
	eng.Run()
	if second-first < sim.Time(40*sim.Microsecond)/2 {
		t.Fatalf("same-die reads not serialized: %v then %v",
			sim.Duration(first), sim.Duration(second))
	}
}

func TestDifferentDiesParallel(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.ChannelBW = 100e9 // make transfer negligible
	a := NewArray(eng, cfg, sim.NewRNG(1, 1))
	var times []sim.Time
	for d := 0; d < 4; d++ {
		a.ReadPage(d, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	for _, tm := range times {
		if tm > sim.Time(45*sim.Microsecond) {
			t.Fatalf("parallel die reads serialized: %v", sim.Duration(tm))
		}
	}
}

func TestChannelSharedByDies(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.ChannelBW = 1e8 // 16 KiB transfer = 163.8µs, dominates
	a := NewArray(eng, cfg, sim.NewRNG(1, 1))
	var last sim.Time
	// Dies 0 and 1 share channel 0.
	a.ReadPage(0, func() { last = eng.Now() })
	a.ReadPage(1, func() {
		if eng.Now() > last {
			last = eng.Now()
		}
	})
	eng.Run()
	// Two 163.8µs transfers must serialize on the shared channel:
	// finish >= 40µs (parallel tR) + 2×163.8µs.
	want := sim.Time(40*sim.Microsecond) + 2*sim.Time(163*sim.Microsecond)
	if last < want {
		t.Fatalf("shared channel not serialized: done %v, want >= %v",
			sim.Duration(last), sim.Duration(want))
	}
}

func TestProgramUnitTiming(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(eng, testConfig(), sim.NewRNG(1, 1))
	var done sim.Time
	a.ProgramUnit(2, func() { done = eng.Now() })
	eng.Run()
	// 32 KiB transfer (32.768µs) + 200µs program.
	want := sim.Time(232 * sim.Microsecond)
	if done < want || done > want+sim.Time(5*sim.Microsecond) {
		t.Fatalf("program done at %v, want ≈ %v", sim.Duration(done), sim.Duration(want))
	}
	if a.Counters().UnitPrograms != 1 {
		t.Fatal("program counter")
	}
}

func TestEraseTiming(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(eng, testConfig(), sim.NewRNG(1, 1))
	var done sim.Time
	a.EraseBlockColumn(3, func() { done = eng.Now() })
	eng.Run()
	if done != sim.Time(2*sim.Millisecond) {
		t.Fatalf("erase done at %v", sim.Duration(done))
	}
	if a.Counters().BlockErases != 1 {
		t.Fatal("erase counter")
	}
}

func TestProgramDistOverride(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.ProgramDist = sim.Const{V: 77 * sim.Microsecond}
	cfg.ChannelBW = 1e12
	a := NewArray(eng, cfg, sim.NewRNG(1, 1))
	var done sim.Time
	a.ProgramUnit(0, func() { done = eng.Now() })
	eng.Run()
	if done < sim.Time(77*sim.Microsecond) || done > sim.Time(78*sim.Microsecond) {
		t.Fatalf("program dist ignored: %v", sim.Duration(done))
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray accepted invalid geometry")
		}
	}()
	cfg := testConfig()
	cfg.Channels = 0
	NewArray(sim.NewEngine(), cfg, sim.NewRNG(1, 1))
}

func TestDieBusyTimeAccumulates(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.ChannelBW = 100e9 // make transfer negligible
	a := NewArray(eng, cfg, sim.NewRNG(1, 1))
	var last sim.Time
	a.ReadPage(1, nil)
	a.ReadPage(1, func() { last = eng.Now() })
	eng.Run()
	// Two 40µs reads back to back keep the die busy for 80µs.
	if got := sim.Duration(last); got < 80*sim.Microsecond || got > 81*sim.Microsecond {
		t.Fatalf("die busy = %v", got)
	}
	if a.DieQueueLen(1) != 0 {
		t.Fatal("queue not drained")
	}
}
