package cluster

import (
	"testing"
	"testing/quick"

	"essdsim/internal/sim"
)

func testConfig() Config {
	return Config{
		Nodes:        8,
		ChunkBytes:   2 << 20,
		Replicas:     3,
		WriteSlots:   2,
		WriteService: sim.Const{V: 50 * sim.Microsecond},
		StreamBW:     1e9,
		ReplBW:       2e9,
		ReplHop:      sim.Const{V: 40 * sim.Microsecond},
		ReadSlots:    4,
		ReadService:  sim.Const{V: 200 * sim.Microsecond},
		ReadBW:       1e9,
		CleanerRate:  1e6,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.ChunkBytes = 100 },
		func(c *Config) { c.Replicas = 0 },
		func(c *Config) { c.Replicas = 99 },
		func(c *Config) { c.WriteSlots = 0 },
		func(c *Config) { c.StreamBW = 0 },
		func(c *Config) { c.WriteService = nil },
		func(c *Config) { c.CleanerRate = -1 },
	}
	for i, mutate := range cases {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestPlacementDeterministicAndSpread(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, testConfig(), sim.NewRNG(1, 1))
	counts := make([]int, c.NumNodes())
	for chunk := int64(0); chunk < 4096; chunk++ {
		n := c.NodeOfChunk(chunk)
		if n != c.NodeOfChunk(chunk) {
			t.Fatal("placement not deterministic")
		}
		counts[n]++
	}
	// Spread: each node should hold roughly 4096/8 = 512 chunks.
	for i, n := range counts {
		if n < 380 || n > 650 {
			t.Fatalf("node %d holds %d chunks, want ≈512", i, n)
		}
	}
	// Adjacent chunks should not all map to the same node.
	same := 0
	for chunk := int64(0); chunk < 100; chunk++ {
		if c.NodeOfChunk(chunk) == c.NodeOfChunk(chunk+1) {
			same++
		}
	}
	if same > 40 {
		t.Fatalf("adjacent chunks co-located %d/100 times", same)
	}
}

func TestWriteLatencyComponents(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, testConfig(), sim.NewRNG(1, 1))
	var at sim.Time
	c.WriteFor(-1, 0, 4096, func() { at = eng.Now() })
	eng.Run()
	// Replica leg dominates: repl transfer ~2µs + hop 40 + svc 50 + hop 40 ≈ 132µs.
	want := sim.Time(132 * sim.Microsecond)
	if at < want-sim.Time(5*sim.Microsecond) || at > want+sim.Time(10*sim.Microsecond) {
		t.Fatalf("replicated write at %v, want ≈%v", sim.Duration(at), sim.Duration(want))
	}
}

func TestWriteSingleReplica(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.Replicas = 1
	c := New(eng, cfg, sim.NewRNG(1, 1))
	var at sim.Time
	c.WriteFor(-1, 0, 4096, func() { at = eng.Now() })
	eng.Run()
	// Primary leg only: stream ~4µs + svc 50µs.
	if at > sim.Time(60*sim.Microsecond) {
		t.Fatalf("single-replica write at %v", sim.Duration(at))
	}
}

func TestSequentialWritesSerializeOnOneNode(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, testConfig(), sim.NewRNG(1, 1))
	// Many writes to the same chunk must be limited by the primary's
	// stream/slots; spread writes go faster.
	const n = 64
	const bytes = 256 << 10
	var doneSame sim.Time
	for i := 0; i < n; i++ {
		c.WriteFor(-1, 7, bytes, func() { doneSame = eng.Now() })
	}
	eng.Run()
	sameElapsed := doneSame

	eng2 := sim.NewEngine()
	c2 := New(eng2, testConfig(), sim.NewRNG(1, 1))
	var doneSpread sim.Time
	for i := 0; i < n; i++ {
		c2.WriteFor(-1, int64(i), bytes, func() { doneSpread = eng2.Now() })
	}
	eng2.Run()
	if doneSpread*2 > sameElapsed {
		t.Fatalf("spread writes (%v) not ≥2x faster than same-chunk (%v)",
			sim.Duration(doneSpread), sim.Duration(sameElapsed))
	}
}

func TestReadPath(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, testConfig(), sim.NewRNG(1, 1))
	var at sim.Time
	c.ReadFor(-1, 3, 4096, func() { at = eng.Now() })
	eng.Run()
	// svc 200µs + 4µs transfer.
	if at < sim.Time(200*sim.Microsecond) || at > sim.Time(210*sim.Microsecond) {
		t.Fatalf("read at %v", sim.Duration(at))
	}
	st := c.NodeStats(c.NodeOfChunk(3))
	if st.Reads != 1 || st.ReadBytes != 4096 {
		t.Fatalf("node stats %+v", st)
	}
}

func TestDebtAccrualAndDecay(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.CleanerRate = 1000 // 1000 B/s
	c := New(eng, cfg, sim.NewRNG(1, 1))
	c.AddDebtFor(-1, 5000)
	if got := c.Debt(); got != 5000 {
		t.Fatalf("debt = %d", got)
	}
	eng.Schedule(sim.Duration(2*sim.Second), func() {})
	eng.Run()
	// After 2 s the cleaner drained 2000.
	if got := c.Debt(); got != 3000 {
		t.Fatalf("debt after decay = %d, want 3000", got)
	}
	eng.Schedule(sim.Duration(10*sim.Second), func() {})
	eng.Run()
	if got := c.Debt(); got != 0 {
		t.Fatalf("debt floor = %d, want 0", got)
	}
}

func TestDebtZeroCleaner(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.CleanerRate = 0
	c := New(eng, cfg, sim.NewRNG(1, 1))
	c.AddDebtFor(-1, 100)
	eng.Schedule(sim.Duration(10*sim.Second), func() {})
	eng.Run()
	if c.Debt() != 100 {
		t.Fatalf("debt with zero cleaner = %d", c.Debt())
	}
}

// Property: replicated writes always complete, and primary stats count
// exactly the submitted operations.
func TestWriteCompletionProperty(t *testing.T) {
	f := func(chunks []uint16) bool {
		eng := sim.NewEngine()
		c := New(eng, testConfig(), sim.NewRNG(9, 9))
		completed := 0
		for _, ch := range chunks {
			c.WriteFor(-1, int64(ch), 4096, func() { completed++ })
		}
		eng.Run()
		if completed != len(chunks) {
			return false
		}
		var writes uint64
		for i := 0; i < c.NumNodes(); i++ {
			writes += c.NodeStats(i).Writes
		}
		return writes == uint64(len(chunks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
