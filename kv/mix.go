package kv

import (
	"fmt"
	"math"

	"essdsim/internal/sim"
	"essdsim/internal/stats"
	"essdsim/internal/workload"
)

// MixSpec describes one tenant's open-loop key-value traffic: point reads
// and writes issued on an arrival schedule regardless of completions, with
// zipfian-skewed keys. It is the KV analogue of workload.OpenSpec — the
// regime where a storage engine's background work (flushes, compactions,
// read-before-write misses) competes with foreground latency.
type MixSpec struct {
	// Ops is the total number of operations to issue.
	Ops uint64
	// ValueSize is the value size of every put.
	ValueSize int64
	// ReadFrac is the fraction of operations that are Gets (0 = pure
	// ingest, 1 = pure lookup).
	ReadFrac float64
	// RatePerSec is the offered operation rate.
	RatePerSec float64
	// Arrival selects the arrival process (workload.Uniform, Poisson,
	// Bursty).
	Arrival workload.Arrival
	// KeySpace is the number of distinct keys (default 1<<20).
	KeySpace uint64
	// ZipfTheta is the key skew in [0, 1): 0 draws uniform keys, 0.99 is
	// YCSB's default "hot" skew.
	ZipfTheta float64
	// Seed fixes the tenant's key, op, and arrival draws.
	Seed uint64
}

// Validate reports a descriptive error for nonsensical specs.
func (s MixSpec) Validate() error {
	switch {
	case s.Ops == 0:
		return fmt.Errorf("kv: mix ops must be positive")
	case s.ValueSize <= 0:
		return fmt.Errorf("kv: mix value size %d not positive", s.ValueSize)
	case s.ReadFrac < 0 || s.ReadFrac > 1:
		return fmt.Errorf("kv: mix read fraction %v out of [0, 1]", s.ReadFrac)
	case !(s.RatePerSec > 0) || math.IsInf(s.RatePerSec, 1):
		return fmt.Errorf("kv: mix rate %v must be finite and positive", s.RatePerSec)
	case !(s.ZipfTheta >= 0 && s.ZipfTheta < 1):
		return fmt.Errorf("kv: mix zipf theta %v outside [0, 1)", s.ZipfTheta)
	}
	return nil
}

// MixTenant pairs one engine with the traffic that drives it inside a
// multi-tenant KV run. Every tenant's engine must run on devices of the
// same simulation engine — attach their volumes to one shared
// essd.Backend (or build private backends on one engine for a
// no-interference control).
type MixTenant struct {
	// Name labels the tenant in results ("kv0", "kv1", ...).
	Name string
	// Engine is the tenant's storage engine (LSM or PageStore).
	Engine Engine
	Spec   MixSpec
}

// MixResult holds one tenant's measurements from a RunMix call. It is
// JSON-round-trippable so cached sweep cells survive persistence.
type MixResult struct {
	Name   string `json:"name"`
	Engine string `json:"engine"`
	Device string `json:"device"`

	Ops       uint64 `json:"ops"`
	Puts      uint64 `json:"puts"`
	Gets      uint64 `json:"gets"`
	UserBytes int64  `json:"user_bytes"`

	// Elapsed spans submission to this tenant's last completion; on a
	// shared engine another tenant may keep the clock running longer.
	Elapsed sim.Duration `json:"elapsed"`
	// Lat is the operation latency histogram: the time from an op's
	// scheduled arrival to its acknowledgement, queueing included.
	Lat *stats.Histogram `json:"lat"`
	// MaxOutstanding is the peak number of in-flight operations.
	MaxOutstanding int `json:"max_outstanding"`

	// Stats is the engine's activity snapshot after the tenant drained
	// (device I/O, amplification, cache hits, stalls).
	Stats Stats `json:"stats"`
}

// OpsPerSec returns the completed operation rate over the tenant's own
// measurement window.
func (r *MixResult) OpsPerSec() float64 {
	secs := r.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Ops) / secs
}

// mixState is one tenant's lazy arrival generator. It keeps exactly one
// arrival pending: arrival i runs on sequence number base+i, reserved when
// the tenant starts, so every event keeps the (time, sequence) key that
// scheduling the whole timetable up front would have given it. Draws come
// from the tenant's private RNG in a fixed order per arrival (Poisson gap,
// key, get/put), so a tenant's op sequence is a pure function of its spec,
// independent of how other tenants' events interleave on the shared engine.
type mixState struct {
	eng         *sim.Engine
	kv          Engine
	spec        MixSpec
	rng         *sim.RNG
	zipf        *workload.Zipf
	src         workload.ArrivalSource
	res         *MixResult
	start       sim.Time
	lastDone    sim.Time
	outstanding int

	base uint64 // sequence number of arrival 0
	i    uint64 // index of the pending arrival
	// The pending arrival's issue time, key and kind.
	at    sim.Time
	key   uint64
	isGet bool
	fire  func(any) // arrive, bound once
}

// startMix schedules the first arrival of a validated tenant on the
// engine; each arrival schedules the next when it fires. It returns a
// finalizer that closes the measurement once the caller has drained the
// engine.
func startMix(eng *sim.Engine, t MixTenant) func() *MixResult {
	spec := t.Spec
	keySpace := spec.KeySpace
	if keySpace == 0 {
		keySpace = 1 << 20
	}
	st := &mixState{
		eng:  eng,
		kv:   t.Engine,
		spec: spec,
		rng:  sim.NewRNG(spec.Seed^0x6b1d, spec.Seed+0x29),
		zipf: workload.NewZipf(int64(keySpace), spec.ZipfTheta),
		src:  workload.NewArrivalSource(spec.Arrival, spec.RatePerSec),
		res: &MixResult{
			Name:   t.Name,
			Engine: t.Engine.Name(),
			Device: t.Engine.Device().Name(),
			Lat:    stats.NewHistogram(),
		},
		start: eng.Now(),
	}
	st.lastDone = st.start
	st.base = eng.Reserve(spec.Ops)
	st.fire = st.arrive
	st.next()
	return func() *MixResult {
		st.res.Elapsed = st.lastDone.Sub(st.start)
		st.res.Stats = t.Engine.Stats()
		return st.res
	}
}

// next draws arrival st.i and schedules it on its reserved sequence number.
func (st *mixState) next() {
	st.at = st.start.Add(st.src.Next(st.rng))
	st.key = uint64(st.zipf.Next(st.rng))
	st.isGet = st.rng.Float64() < st.spec.ReadFrac
	st.eng.AtSeq(st.at, st.base+st.i, st.fire, nil)
}

// arrive issues the pending arrival, then draws and schedules the next.
func (st *mixState) arrive(any) {
	st.outstanding++
	if st.outstanding > st.res.MaxOutstanding {
		st.res.MaxOutstanding = st.outstanding
	}
	issueAt := st.at
	done := func() {
		st.outstanding--
		now := st.eng.Now()
		st.lastDone = now
		st.res.Lat.Record(now.Sub(issueAt))
		st.res.Ops++
	}
	if st.isGet {
		st.res.Gets++
		st.kv.Get(st.key, done)
	} else {
		st.res.Puts++
		st.res.UserBytes += st.spec.ValueSize
		st.kv.Put(st.key, st.spec.ValueSize, done)
	}
	if st.i++; st.i < st.spec.Ops {
		st.next()
	}
}

// RunMix drives several KV tenants' arrival schedules concurrently inside
// one simulation engine: every tenant is started, then a single engine run
// drains all of them (plus a per-engine Barrier for background flushes and
// compactions), so tenant I/O interleaves event-for-event the way
// concurrent guests on a shared backend would. Results are returned in
// tenant order.
//
// It panics on invalid input (no tenants, a tenant without an engine, a
// device on a different simulation engine, or an invalid spec) — the same
// harness-programming-error contract as workload.RunTenants. One engine
// means one event order, so a mix is exactly reproducible from its specs
// and seeds regardless of host parallelism.
func RunMix(eng *sim.Engine, tenants []MixTenant) []*MixResult {
	if len(tenants) == 0 {
		panic(fmt.Errorf("kv: no tenants"))
	}
	for i, t := range tenants {
		switch {
		case t.Engine == nil:
			panic(fmt.Errorf("kv: tenant %d (%s) has no engine", i, t.Name))
		case t.Engine.Device().Engine() != eng:
			panic(fmt.Errorf("kv: tenant %d (%s) device %q is not on the shared engine", i, t.Name, t.Engine.Device().Name()))
		}
		if err := t.Spec.Validate(); err != nil {
			panic(err)
		}
	}
	finishers := make([]func() *MixResult, len(tenants))
	for i, t := range tenants {
		finishers[i] = startMix(eng, t)
	}
	eng.Run()
	// Drain background work (flushes/compactions) before reading stats:
	// foreground acks do not imply the engines went idle.
	drained := 0
	for _, t := range tenants {
		t.Engine.Barrier(func() { drained++ })
	}
	eng.Run()
	if drained != len(tenants) {
		panic(fmt.Errorf("kv: mix did not drain (%d of %d barriers)", drained, len(tenants)))
	}
	out := make([]*MixResult, len(tenants))
	for i, fin := range finishers {
		out[i] = fin()
	}
	return out
}
