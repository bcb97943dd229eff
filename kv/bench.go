package kv

import (
	"fmt"

	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// IngestResult summarizes a bulk ingest run.
type IngestResult struct {
	Engine    string
	Device    string
	Puts      uint64
	UserBytes int64
	Elapsed   sim.Duration
	Stats     Stats
}

// PutsPerSec returns the ingest rate in operations per (virtual) second.
func (r IngestResult) PutsPerSec() float64 {
	secs := r.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Puts) / secs
}

// UserMBps returns the effective user-data rate in MB/s.
func (r IngestResult) UserMBps() float64 {
	secs := r.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.UserBytes) / secs / 1e6
}

// IngestSpec parameterizes IngestRun.
type IngestSpec struct {
	// Puts is the number of fixed-size puts to drive.
	Puts uint64
	// ValueSize is the value size of every put.
	ValueSize int64
	// Concurrency is the closed-loop client count (min 1).
	Concurrency int
	// KeySpace is the number of distinct keys (default 1<<20).
	KeySpace uint64
	// Seed fixes the key sequence.
	Seed uint64
	// ZipfTheta selects the key distribution. Zero keeps the historical
	// uniform xorshift draw (golden-compatible); anything in (0, 1)
	// draws YCSB-style zipfian keys over KeySpace instead.
	ZipfTheta float64
}

// ingestState is the closed-loop pump: completions re-arm issuance
// through one pre-bound callback, and the pumping flag flattens the
// Put→ack→pump recursion that synchronous admissions (the LSM memtable
// path) would otherwise build — same issue order, constant stack.
type ingestState struct {
	e           Engine
	puts        uint64
	issued      uint64
	completed   uint64
	valueSize   int64
	concurrency int
	inflight    int
	keySpace    uint64
	state       uint64
	zipf        *workload.Zipf
	rng         *sim.RNG
	pumping     bool
	onAck       func()
}

func (st *ingestState) nextKey() uint64 {
	if st.zipf != nil {
		return uint64(st.zipf.Next(st.rng))
	}
	st.state ^= st.state << 13
	st.state ^= st.state >> 7
	st.state ^= st.state << 17
	return st.state % st.keySpace
}

func (st *ingestState) ack() {
	st.completed++
	st.inflight--
	if !st.pumping {
		st.pump()
	}
}

func (st *ingestState) pump() {
	st.pumping = true
	st.e.BeginBatch()
	for st.inflight < st.concurrency && st.issued < st.puts {
		st.issued++
		st.inflight++
		st.e.Put(st.nextKey(), st.valueSize, st.onAck)
	}
	st.e.EndBatch()
	st.pumping = false
}

// IngestRun drives spec.Puts fixed-size puts through the engine at the
// given client concurrency, waits for the engine to go idle (Barrier),
// and returns the measurements. It panics on a ZipfTheta outside [0, 1),
// NaN included.
func IngestRun(eng *sim.Engine, e Engine, spec IngestSpec) IngestResult {
	if spec.Concurrency < 1 {
		spec.Concurrency = 1
	}
	if spec.KeySpace == 0 {
		spec.KeySpace = 1 << 20
	}
	st := ingestState{
		e:           e,
		puts:        spec.Puts,
		valueSize:   spec.ValueSize,
		concurrency: spec.Concurrency,
		keySpace:    spec.KeySpace,
		state:       spec.Seed*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3,
	}
	if !(spec.ZipfTheta >= 0 && spec.ZipfTheta < 1) {
		panic(fmt.Sprintf("kv: zipf theta %v outside [0, 1)", spec.ZipfTheta))
	}
	if spec.ZipfTheta != 0 {
		st.zipf = workload.NewZipf(int64(spec.KeySpace), spec.ZipfTheta)
		st.rng = sim.NewRNG(spec.Seed, spec.Seed^0x7)
	}
	st.onAck = st.ack
	start := eng.Now()
	st.pump()
	eng.Run()
	// Drain background work (flushes/compactions) before reading stats.
	finished := false
	e.Barrier(func() { finished = true })
	eng.Run()
	if !finished || st.completed != spec.Puts {
		panic("kv: ingest did not drain")
	}
	return IngestResult{
		Engine:    e.Name(),
		Device:    e.Device().Name(),
		Puts:      st.completed,
		UserBytes: int64(st.completed) * spec.ValueSize,
		Elapsed:   eng.Now().Sub(start),
		Stats:     e.Stats(),
	}
}

// Ingest drives `puts` fixed-size puts through the engine at the given
// client concurrency with uniformly drawn keys — the historical
// signature, kept golden-compatible. IngestRun's spec form adds the
// zipfian key option.
func Ingest(eng *sim.Engine, e Engine, puts uint64, valueSize int64,
	concurrency int, keySpace uint64, seed uint64) IngestResult {
	return IngestRun(eng, e, IngestSpec{
		Puts:        puts,
		ValueSize:   valueSize,
		Concurrency: concurrency,
		KeySpace:    keySpace,
		Seed:        seed,
	})
}
