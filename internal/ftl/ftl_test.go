package ftl

import (
	"testing"
	"testing/quick"

	"essdsim/internal/flash"
	"essdsim/internal/sim"
)

// smallSetup builds a tiny FTL (64 MiB user space) for fast tests.
func smallSetup(t *testing.T, userMB int64, op float64) (*sim.Engine, *FTL) {
	t.Helper()
	eng := sim.NewEngine()
	fc := flash.Config{
		Channels:       2,
		DiesPerChannel: 2,
		PlanesPerDie:   2,
		PagesPerBlock:  16,
		BlocksPerPlane: 4096,
		PageSize:       16 << 10,
		ReadLatency:    40 * sim.Microsecond,
		ProgramLatency: 190 * sim.Microsecond,
		EraseLatency:   2 * sim.Millisecond,
		ChannelBW:      1.2e9,
	}
	arr := flash.NewArray(eng, fc, sim.NewRNG(3, 3))
	cfg := Config{
		LogicalPageSize:  4096,
		UserCapacity:     userMB << 20,
		Overprovision:    op,
		WriteBufferBytes: 1 << 20,
		GCLowWaterFrac:   0.06,
		GCHighWaterFrac:  0.08,
		ReserveSBs:       2,
		GCStreams:        4,
	}
	return eng, New(eng, arr, cfg)
}

func TestGeometryDerivation(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	if f.slotsPerPage != 4 {
		t.Fatalf("slotsPerPage = %d", f.slotsPerPage)
	}
	if f.slotsPerUnit != 8 {
		t.Fatalf("slotsPerUnit = %d", f.slotsPerUnit)
	}
	// 8 slots/unit × 4 dies × 16 pages/block = 512 slots per superblock.
	if f.slotsPerSB != 512 {
		t.Fatalf("slotsPerSB = %d", f.slotsPerSB)
	}
	if f.userLPNs != 16384 {
		t.Fatalf("userLPNs = %d", f.userLPNs)
	}
	// At least user + OP superblocks.
	if f.numSBs < 33 {
		t.Fatalf("numSBs = %d", f.numSBs)
	}
}

func TestWriteAckFromBuffer(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	var acked sim.Time = -1
	f.HostWrite(0, 1, func() { acked = eng.Now() })
	if acked != 0 {
		t.Fatalf("buffered write not acked synchronously: %v", acked)
	}
	if f.BufferBytes() != 4096 {
		t.Fatalf("buffer bytes = %d", f.BufferBytes())
	}
	if !f.InBuffer(0) {
		t.Fatal("LPN not marked buffered")
	}
	eng.Run()
}

func TestBufferCoalescing(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	n := 0
	f.HostWrite(5, 1, func() { n++ })
	f.HostWrite(5, 1, func() { n++ }) // coalesces: same LPN still pending
	if n != 2 {
		t.Fatalf("acks = %d", n)
	}
	if f.BufferBytes() != 4096 {
		t.Fatalf("coalesced write double-charged: %d", f.BufferBytes())
	}
	if f.Counters().BufferCoalesced != 1 {
		t.Fatalf("coalesce counter = %d", f.Counters().BufferCoalesced)
	}
	eng.Run()
}

func TestDrainProgramsFullUnits(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	// 8 LPNs = exactly one program unit.
	f.HostWrite(0, 8, nil)
	eng.Run()
	if got := f.Counters().HostSlots; got != 8 {
		t.Fatalf("host slots = %d", got)
	}
	if f.BufferBytes() != 0 {
		t.Fatalf("buffer not drained: %d", f.BufferBytes())
	}
	for i := int64(0); i < 8; i++ {
		if !f.Mapped(i) {
			t.Fatalf("LPN %d unmapped after drain", i)
		}
		if f.InBuffer(i) {
			t.Fatalf("LPN %d still buffered", i)
		}
	}
}

func TestPartialUnitWaitsWithoutFlush(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 3, nil) // less than one unit
	eng.Run()
	if f.Counters().HostSlots != 0 {
		t.Fatal("partial unit drained without flush")
	}
	if f.BufferBytes() != 3*4096 {
		t.Fatalf("buffer bytes = %d", f.BufferBytes())
	}
}

func TestFlushDrainsPartialUnit(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 3, nil)
	flushed := false
	f.Flush(func() { flushed = true })
	eng.Run()
	if !flushed {
		t.Fatal("flush never completed")
	}
	if f.Counters().HostSlots != 3 {
		t.Fatalf("host slots = %d", f.Counters().HostSlots)
	}
	if f.BufferBytes() != 0 {
		t.Fatal("buffer not empty after flush")
	}
}

func TestFlushOnEmptyBufferImmediate(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	called := false
	f.Flush(func() { called = true })
	if !called {
		t.Fatal("empty flush must complete synchronously")
	}
}

func TestBufferBackpressure(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	// Buffer is 1 MiB = 256 LPNs. Write 512 LPNs in one request: must
	// stall until drain frees space, then ack.
	var ackAt sim.Time = -1
	f.HostWrite(0, 512, func() { ackAt = eng.Now() })
	if ackAt == 0 {
		t.Fatal("oversized write acked without stalling")
	}
	eng.Run()
	if ackAt <= 0 {
		t.Fatal("oversized write never acked")
	}
	if f.Counters().BufferStallNanos <= 0 {
		t.Fatal("stall time not accounted")
	}
}

func TestOverwriteInvalidates(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 8, nil)
	eng.Run()
	before := f.Counters().InvalidatedBytes
	f.HostWrite(0, 8, nil)
	eng.Run()
	gained := f.Counters().InvalidatedBytes - before
	if gained != 8*4096 {
		t.Fatalf("invalidated %d bytes, want %d", gained, 8*4096)
	}
	if got := f.Counters().HostSlots; got != 16 {
		t.Fatalf("host slots = %d", got)
	}
}

func TestReadGroupsFlashPages(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 8, nil)
	eng.Run()
	// 8 sequential LPNs = 2 flash pages (4 slots each).
	n := f.ReadLPNs(0, 8, func() {})
	if n != 2 {
		t.Fatalf("page reads = %d, want 2", n)
	}
	eng.Run()
}

func TestReadUnmappedAndBufferedFree(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 2, nil) // stays in buffer (partial unit)
	done := false
	n := f.ReadLPNs(0, 4, func() { done = true }) // 2 buffered + 2 unmapped
	if n != 0 {
		t.Fatalf("media reads = %d, want 0", n)
	}
	eng.Run()
	if !done {
		t.Fatal("read completion lost")
	}
}

func TestTrimInvalidates(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 8, nil)
	eng.Run()
	f.Trim(0, 8)
	for i := int64(0); i < 8; i++ {
		if f.Mapped(i) {
			t.Fatalf("LPN %d mapped after trim", i)
		}
	}
	if n := f.ReadLPNs(0, 8, func() {}); n != 0 {
		t.Fatalf("trimmed read cost %d media reads", n)
	}
	eng.Run()
}

func TestPreconditionSequential(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	f.Precondition(1.0, false, sim.NewRNG(1, 1))
	if got := f.Utilization(); got < 0.999 {
		t.Fatalf("utilization = %v", got)
	}
	for i := int64(0); i < f.userLPNs; i++ {
		if !f.Mapped(i) {
			t.Fatalf("LPN %d unmapped after full precondition", i)
		}
	}
	// Sequential layout: LPNs 0..7 share a unit => 2 flash pages.
	if n := f.ReadLPNs(0, 8, func() {}); n != 2 {
		t.Fatalf("sequential precondition layout: %d page reads", n)
	}
}

func TestPreconditionRandomScatters(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	f.Precondition(1.0, true, sim.NewRNG(1, 1))
	// Randomized layout: 8 sequential LPNs land on ~8 distinct pages.
	if n := f.ReadLPNs(0, 8, func() {}); n < 5 {
		t.Fatalf("randomized precondition too clustered: %d page reads", n)
	}
}

func TestPreconditionPartial(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	f.Precondition(0.5, false, sim.NewRNG(1, 1))
	u := f.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

// TestGCReclaimsSpace drives sustained random overwrites through a small
// device and verifies GC keeps it writable, conserves mapping integrity, and
// produces write amplification > 1.
func TestGCReclaimsSpace(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.10)
	rng := sim.NewRNG(11, 13)
	// Write 3× the user capacity in random 8-LPN bursts.
	totalUnits := 3 * int(f.userLPNs) / 8
	pendingAcks := 0
	for i := 0; i < totalUnits; i++ {
		lpn := rng.Int64N(f.userLPNs - 8)
		pendingAcks++
		f.HostWrite(lpn, 8, func() { pendingAcks-- })
		// Periodically drain the event loop to let GC interleave.
		if i%32 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if pendingAcks != 0 {
		t.Fatalf("%d writes never acked (deadlock?)", pendingAcks)
	}
	c := f.Counters()
	if c.GCVictims == 0 || c.Erases == 0 {
		t.Fatalf("GC never ran: %+v", c)
	}
	if wa := c.WriteAmplification(); wa <= 1.0 {
		t.Fatalf("write amplification = %v, want > 1", wa)
	}
	if f.FreeSuperblocks() == 0 {
		t.Fatal("device wedged with zero free superblocks")
	}
	checkIntegrity(t, f)
}

// checkIntegrity verifies mapping/rmap/valid-count consistency.
func checkIntegrity(t *testing.T, f *FTL) {
	t.Helper()
	// Every mapped LPN's rmap entry must point back at it.
	var mappedCount int64
	for lpn := int64(0); lpn < f.userLPNs; lpn++ {
		ppn := f.mapping[lpn]
		if ppn == unmapped {
			continue
		}
		mappedCount++
		if got := f.rmap[ppn]; got != int32(lpn) {
			t.Fatalf("rmap[%d] = %d, want %d", ppn, got, lpn)
		}
	}
	// Per-superblock valid counts must equal live rmap entries.
	for sb := 0; sb < f.numSBs; sb++ {
		var live int32
		base := sb * f.slotsPerSB
		for s := 0; s < f.slotsPerSB; s++ {
			if f.rmap[base+s] != unmapped {
				live++
			}
		}
		if live != f.sbValid[sb] {
			t.Fatalf("sb %d: valid count %d, live %d", sb, f.sbValid[sb], live)
		}
	}
}

// Property: any sequence of small writes and trims preserves mapping
// integrity once the event loop drains. The seed decides where the event
// loop runs between operations (to idle, for a random span, or not at
// all), so drains, backpressure and GC interleave with the operations
// differently from case to case.
func TestMappingIntegrityProperty(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		eng, f := smallSetup(t, 16, 0.10)
		rng := sim.NewRNG(seed, seed^0xabcdef)
		for _, op := range ops {
			lpn := int64(op) % (f.userLPNs - 8)
			if op%5 == 0 {
				f.Trim(lpn, 4)
			} else {
				f.HostWrite(lpn, int64(op%8)+1, nil)
			}
			switch rng.Int64N(4) {
			case 0:
				eng.Run()
			case 1:
				stop, reached := eng.Now().Add(sim.Duration(rng.Int64N(int64(500*sim.Microsecond)))), false
				eng.At(stop, func() { reached = true })
				for !reached && eng.Step() {
				}
			}
		}
		f.Flush(func() {})
		eng.Run()
		// Inline integrity check (cannot use t.Fatalf inside quick).
		for lpn := int64(0); lpn < f.userLPNs; lpn++ {
			ppn := f.mapping[lpn]
			if ppn != unmapped && f.rmap[ppn] != int32(lpn) {
				return false
			}
		}
		for sb := 0; sb < f.numSBs; sb++ {
			var live int32
			base := sb * f.slotsPerSB
			for s := 0; s < f.slotsPerSB; s++ {
				if f.rmap[base+s] != unmapped {
					live++
				}
			}
			if live != f.sbValid[sb] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAmplificationCounter(t *testing.T) {
	c := Counters{HostSlots: 100, GCSlots: 50}
	if wa := c.WriteAmplification(); wa != 1.5 {
		t.Fatalf("WA = %v", wa)
	}
	if wa := (Counters{}).WriteAmplification(); wa != 1 {
		t.Fatalf("empty WA = %v", wa)
	}
}

func TestWearAccounting(t *testing.T) {
	eng, f := smallSetup(t, 16, 0.10)
	rng := sim.NewRNG(5, 5)
	for i := 0; i < 4*int(f.userLPNs)/8; i++ {
		f.HostWrite(rng.Int64N(f.userLPNs-8), 8, nil)
		if i%64 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if f.Counters().Erases == 0 {
		t.Skip("no GC in this configuration")
	}
	var total int32
	for _, e := range f.sbErases {
		total += e
	}
	if uint64(total) != f.Counters().Erases {
		t.Fatalf("per-sb erases %d != counter %d", total, f.Counters().Erases)
	}
}
