package kv

import "essdsim/internal/sim"

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
	pumping     bool
	onAck       func()
}

func (st *ingestState) nextKey() uint64 {
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

// Ingest drives puts fixed-size puts of valueSize bytes through the
// engine at the given client concurrency (min 1), with keys drawn
// uniformly over keySpace (default 1<<20) from seed, waits for the engine
// to go idle (Barrier), and returns the measurements.
func Ingest(eng *sim.Engine, e Engine, puts uint64, valueSize int64,
	concurrency int, keySpace uint64, seed uint64) IngestResult {
	if concurrency < 1 {
		concurrency = 1
	}
	if keySpace == 0 {
		keySpace = 1 << 20
	}
	st := ingestState{
		e:           e,
		puts:        puts,
		valueSize:   valueSize,
		concurrency: concurrency,
		keySpace:    keySpace,
		state:       seed*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3,
	}
	st.onAck = st.ack
	start := eng.Now()
	st.pump()
	eng.Run()
	// Drain background work (flushes/compactions) before reading stats.
	finished := false
	e.Barrier(func() { finished = true })
	eng.Run()
	if !finished || st.completed != puts {
		panic("kv: ingest did not drain")
	}
	return IngestResult{
		Engine:    e.Name(),
		Device:    e.Device().Name(),
		Puts:      st.completed,
		UserBytes: int64(st.completed) * valueSize,
		Elapsed:   eng.Now().Sub(start),
		Stats:     e.Stats(),
	}
}
