// Package flash models the timing of a NAND flash array: channels, dies,
// planes, and the asymmetric latencies of read, program and erase
// operations (paper §II-A). It is purely a timing model — which pages hold
// which data is the FTL's business (package ftl).
package flash

import (
	"fmt"

	"essdsim/internal/sim"
)

// Config describes the geometry and timing of a flash array.
type Config struct {
	Channels       int   // independent buses
	DiesPerChannel int   // dies sharing one channel
	PlanesPerDie   int   // planes programmed together in multi-plane ops
	PagesPerBlock  int   // flash pages per block (per plane)
	BlocksPerPlane int   // physical blocks per plane
	PageSize       int64 // flash page size in bytes (e.g. 16 KiB)

	ReadLatency    sim.Duration // tR: media read of one page
	ProgramLatency sim.Duration // tPROG: multi-plane program of one page per plane
	EraseLatency   sim.Duration // tBERS: block erase (all planes)

	// ProgramDist, when non-nil, replaces ProgramLatency with a
	// distribution. Real TLC program times vary several-fold page-to-page
	// (LSB/CSB/MSB), which is what gives a saturated write buffer its
	// bursty drain and realistic tail latencies.
	ProgramDist sim.Dist

	ChannelBW float64 // bytes/s transferred on one channel
}

// Dies returns the total number of dies in the array.
func (c Config) Dies() int { return c.Channels * c.DiesPerChannel }

// ProgramUnitBytes returns the bytes written by one multi-plane program.
func (c Config) ProgramUnitBytes() int64 { return int64(c.PlanesPerDie) * c.PageSize }

// Validate reports a descriptive error for nonsensical geometry.
func (c Config) Validate() error {
	switch {
	case c.Channels < 1, c.DiesPerChannel < 1, c.PlanesPerDie < 1:
		return fmt.Errorf("flash: geometry must be positive: %+v", c)
	case c.PagesPerBlock < 1, c.BlocksPerPlane < 1, c.PageSize < 512:
		return fmt.Errorf("flash: block layout invalid: %+v", c)
	case c.ReadLatency <= 0 || c.ProgramLatency <= 0 || c.EraseLatency <= 0:
		return fmt.Errorf("flash: latencies must be positive: %+v", c)
	case c.ChannelBW <= 0:
		return fmt.Errorf("flash: channel bandwidth must be positive")
	}
	return nil
}

// Counters tallies media operations for write-amplification accounting.
type Counters struct {
	PageReads    uint64
	UnitPrograms uint64
	BlockErases  uint64
}

// Array is a flash array timing model. Each die serializes its operations;
// each channel is a bandwidth pipe shared by the dies attached to it.
type Array struct {
	eng      *sim.Engine
	cfg      Config
	rng      *sim.RNG
	dies     []*sim.Server
	channels []*sim.Pipe
	counters Counters
	freeOps  *op // recycled two-stage operation records
}

// op carries a read or program between its two stages, the die visit and
// the channel transfer. Records are recycled through the array's free list
// with their stage methods bound once, so neither stage allocates a
// closure.
type op struct {
	a        *Array
	die      int
	done     func()
	program  func() // bound onTransferred: the unit is on the die, program it
	transfer func() // bound onRead: the page is read, move it over the channel
	nextFree *op
}

func (a *Array) getOp(die int, done func()) *op {
	o := a.freeOps
	if o != nil {
		a.freeOps = o.nextFree
		o.nextFree = nil
	} else {
		o = &op{a: a}
		o.program = o.onTransferred
		o.transfer = o.onRead
	}
	o.die, o.done = die, done
	return o
}

// put recycles the record and returns its die and completion.
func (o *op) put() (die int, done func()) {
	a := o.a
	die, done = o.die, o.done
	o.done = nil
	o.nextFree = a.freeOps
	a.freeOps = o
	return die, done
}

func (o *op) onTransferred() {
	a := o.a
	die, done := o.put()
	a.dies[die].Visit(a.cfg.ProgramDist.Sample(a.rng), done)
}

func (o *op) onRead() {
	a := o.a
	die, done := o.put()
	a.channelOf(die).Transfer(a.cfg.PageSize, done)
}

// NewArray builds the array on the given engine. rng drives the program
// latency distribution. It panics on invalid geometry (a
// construction-time programming error).
func NewArray(eng *sim.Engine, cfg Config, rng *sim.RNG) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ProgramDist == nil {
		cfg.ProgramDist = sim.Const{V: cfg.ProgramLatency}
	}
	if rng == nil {
		rng = sim.NewRNG(0x5f1a54, 0xf1a5)
	}
	a := &Array{eng: eng, cfg: cfg, rng: rng}
	n := cfg.Dies()
	a.dies = make([]*sim.Server, n)
	for i := range a.dies {
		a.dies[i] = sim.NewServer(eng, fmt.Sprintf("die%d", i), 1)
	}
	a.channels = make([]*sim.Pipe, cfg.Channels)
	for i := range a.channels {
		a.channels[i] = sim.NewPipe(eng, fmt.Sprintf("chan%d", i), cfg.ChannelBW)
	}
	return a
}

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// Counters returns a snapshot of the media-operation counters.
func (a *Array) Counters() Counters { return a.counters }

func (a *Array) channelOf(die int) *sim.Pipe {
	return a.channels[die/a.cfg.DiesPerChannel]
}

// ReadPage performs a media read of one flash page on the given die and
// transfers it over the die's channel. done fires when the data has left the
// channel.
func (a *Array) ReadPage(die int, done func()) {
	a.counters.PageReads++
	a.dies[die].Visit(a.cfg.ReadLatency, a.getOp(die, done).transfer)
}

// ProgramUnit transfers one multi-plane program unit over the channel and
// programs it. done fires when the program completes and the unit's pages
// are durable.
func (a *Array) ProgramUnit(die int, done func()) {
	a.counters.UnitPrograms++
	a.channelOf(die).Transfer(a.cfg.ProgramUnitBytes(), a.getOp(die, done).program)
}

// EraseBlockColumn erases one block column (all planes) on the given die.
func (a *Array) EraseBlockColumn(die int, done func()) {
	a.counters.BlockErases++
	a.dies[die].Visit(a.cfg.EraseLatency, done)
}
