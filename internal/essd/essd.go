// Package essd assembles the simulated elastic solid-state drive: the
// virtualized block device the paper characterizes (§II-C). It stitches
// together the compute-side frontend, the datacenter network (package
// netsim), the provisioned QoS budgets (package qos) and the storage
// cluster (package cluster) into a blockdev.Device.
//
// The stack is storage-compute disaggregated, exactly as in the paper's
// Fig 1: a Backend is the shared storage side — one cluster plus one
// network fabric — and any number of volumes Attach to it, each with its
// own per-volume QoS budgets, burst credits, frontend, and flow limiter.
// Attached volumes contend on the backend's node streams, fabric pipes,
// and background cleaner, and the backend attributes debt, stream
// operations, and fabric bytes per volume (VolumeStats). The single-volume
// convenience constructor New builds a private Backend, reproducing the
// classic one-volume-per-cluster shape bit for bit.
//
// The unwritten contract's observations map onto this assembly as follows:
//
//   - Obs#1: every I/O pays frontend + network + cluster service time, so
//     small/low-QD I/Os see tens-of-times local-SSD latency while large
//     batched I/Os amortize it.
//   - Obs#2: writes acknowledge from replicated node journals; cleaning
//     debt only surfaces when the flow limiter engages, far beyond the
//     local SSD's ~90%-of-capacity GC cliff. On a shared backend the debt
//     pool is cluster-wide, so one tenant's overwrite churn advances every
//     tenant's throttle onset.
//   - Obs#3: sequential windows serialize on few placement groups while
//     random writes fan out — random-write throughput wins. Shared-backend
//     tenants contend for the same placement-group streams.
//   - Obs#4: a combined bytes/s token bucket at the provisioned budget
//     makes peak bandwidth deterministic regardless of access pattern.
package essd

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"essdsim/internal/blockdev"
	"essdsim/internal/cluster"
	"essdsim/internal/netsim"
	"essdsim/internal/obs"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
)

// bitmapPool recycles written-bitmaps across experiment cells: a fleet
// sweep attaches (volumes × cells) bitmaps of several hundred KiB each, and
// reusing them keeps the allocator and GC out of the per-cell setup path.
var bitmapPool sync.Pool

// acquireBitmap returns a zeroed bitmap of n words, reusing pooled storage
// when it is large enough.
func acquireBitmap(n int64) []uint64 {
	if v := bitmapPool.Get(); v != nil {
		s := *v.(*[]uint64)
		if int64(cap(s)) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]uint64, n)
}

// releaseBitmap returns a bitmap to the pool.
func releaseBitmap(s []uint64) {
	if cap(s) == 0 {
		return
	}
	bitmapPool.Put(&s)
}

// opPool hands the op records of released volumes to the next cell's
// volumes. A volume lives for one cell, so without it every cell would
// allocate records again up to its peak number of outstanding requests.
// Unlike a sync.Pool, a mutex-guarded list survives GC cycles.
var opPool struct {
	sync.Mutex
	ops  *ioOp
	subs *subOp
}

// poolOps hands a released volume's free lists to opPool, unbinding each
// op from the volume so the pool keeps no dead cell reachable.
func poolOps(ops *ioOp, subs *subOp) {
	var lastOp *ioOp
	for o := ops; o != nil; o = o.nextFree {
		o.e = nil
		lastOp = o
	}
	var lastSub *subOp
	for s := subs; s != nil; s = s.nextFree {
		lastSub = s
	}
	opPool.Lock()
	if lastOp != nil {
		lastOp.nextFree = opPool.ops
		opPool.ops = ops
	}
	if lastSub != nil {
		lastSub.nextFree = opPool.subs
		opPool.subs = subs
	}
	opPool.Unlock()
}

// pooledOp takes one op record from opPool, or returns nil.
func pooledOp() *ioOp {
	opPool.Lock()
	defer opPool.Unlock()
	o := opPool.ops
	if o != nil {
		opPool.ops, o.nextFree = o.nextFree, nil
	}
	return o
}

// pooledSub takes one subrequest record from opPool, or returns nil.
func pooledSub() *subOp {
	opPool.Lock()
	defer opPool.Unlock()
	s := opPool.subs
	if s != nil {
		opPool.subs, s.nextFree = s.nextFree, nil
	}
	return s
}

// VolumeConfig parameterizes one ESSD volume: everything the provider
// provisions per volume — identity, capacity, QoS budgets, burst credits,
// the compute-side frontend, and the flow-limiter policy. The shared
// storage side lives in BackendConfig.
type VolumeConfig struct {
	Name      string
	Provider  string
	Model     string
	Capacity  int64
	BlockSize int64

	// Provisioned budgets (paper Table I).
	ThroughputBudget float64 // bytes/s, reads+writes combined
	BudgetBurst      float64 // token bucket burst, bytes
	IOPSBudget       float64 // I/O operations per second
	IOPSBurst        float64 // IOPS bucket burst
	IOPSChunkBytes   int64   // bytes covered by one IOPS token (e.g. 256 KiB on io2)

	// Frontend (virtio + EBS client) processing.
	FrontendSlots   int
	FrontendLatency sim.Dist

	// Flow limiter (Observation #2): when cleaning debt exceeds
	// SpareFrac×Capacity, the write path is clamped to ThrottleRate.
	// SpareFrac <= 0 disables throttling (ESSD-2 behaviour within the
	// paper's 3× experiment). On a shared backend the observed debt is the
	// cluster-wide pool, so other tenants' churn counts against this
	// volume's threshold.
	SpareFrac    float64
	ThrottleRate float64

	// Burst credits (optional): burstable volume classes (AWS gp2-style)
	// sustain BurstBaseline bytes/s, may spend banked credits up to the
	// ThroughputBudget ceiling, and bank at most BurstCreditBytes. When
	// BurstBaseline > 0 the throughput budget behaves like the burst
	// ceiling of such a tier.
	BurstBaseline    float64
	BurstCreditBytes float64

	// Per-tenant isolation parameters, inert under the backend's default
	// FIFO policy: Weight is this volume's share at every backend
	// contention point under wfq/reservation (default 1), ReservedRate
	// the bytes/s served strictly first at each contention point under
	// reservation. New fields stay at the end of the struct: Signature
	// depends on the field order.
	Weight       float64
	ReservedRate float64
}

// Validate reports a descriptive error for inconsistent volume
// configuration against the backend's placement chunk size.
func (c VolumeConfig) Validate(chunkBytes int64) error {
	switch {
	case c.Capacity <= 0 || c.BlockSize <= 0 || c.Capacity%c.BlockSize != 0:
		return fmt.Errorf("essd: bad capacity/block size %d/%d", c.Capacity, c.BlockSize)
	case c.ThroughputBudget <= 0:
		return fmt.Errorf("essd: throughput budget must be positive")
	case c.IOPSBudget <= 0 || c.IOPSChunkBytes <= 0:
		return fmt.Errorf("essd: IOPS budget/chunk must be positive")
	case c.FrontendSlots < 1 || c.FrontendLatency == nil:
		return fmt.Errorf("essd: frontend misconfigured")
	case chunkBytes%c.BlockSize != 0:
		return fmt.Errorf("essd: cluster chunk not a multiple of block size")
	case !(c.Weight >= 0) || !(c.ReservedRate >= 0) || math.IsInf(c.Weight, 1) || math.IsInf(c.ReservedRate, 1):
		// NaN fails every comparison, so test for the valid range.
		return fmt.Errorf("essd: isolation weight/reservation %v/%v must be finite and non-negative", c.Weight, c.ReservedRate)
	}
	return nil
}

// Signature renders the volume configuration exactly as %#v rendered the
// pre-isolation struct, with the isolation fields stripped — existing
// cache labels built from it stay byte-identical — and re-appends them
// only when set, so isolation variants get distinct labels.
func (c VolumeConfig) Signature() string {
	s := fmt.Sprintf("%#v", c)
	s = strings.TrimSuffix(s, fmt.Sprintf(", Weight:%#v, ReservedRate:%#v}", c.Weight, c.ReservedRate)) + "}"
	if c.Weight != 0 || c.ReservedRate != 0 {
		s += fmt.Sprintf("+qos{w:%g,r:%g}", c.Weight, c.ReservedRate)
	}
	return s
}

// BackendConfig parameterizes the shared storage side of the stack: the
// datacenter fabric and the storage cluster that every attached volume's
// I/O traverses.
type BackendConfig struct {
	Net     netsim.Config
	Cluster cluster.Config

	// Isolation selects the per-tenant QoS policy installed at every
	// backend contention point (fabric pipes, node streams and servers,
	// cleaner-debt admission). The zero value is plain FIFO — the exact
	// pre-isolation behaviour, byte for byte. New fields stay at the end
	// of the struct: Signature depends on the field order.
	Isolation qos.Isolation
}

// Validate reports a descriptive error for inconsistent backend
// configuration.
func (c BackendConfig) Validate() error { return c.Cluster.Validate() }

// Signature renders the backend configuration exactly as %#v rendered the
// pre-isolation struct, with the Isolation field stripped — existing
// cache labels built from it stay byte-identical — and re-appends it only
// when the policy departs from FIFO.
func (c BackendConfig) Signature() string {
	s := fmt.Sprintf("%#v", c)
	s = strings.TrimSuffix(s, fmt.Sprintf(", Isolation:%#v}", c.Isolation)) + "}"
	if c.Isolation.Enabled() {
		s += "+iso{" + c.Isolation.Signature() + "}"
	}
	return s
}

// Config is the classic flat single-volume configuration: one volume's
// settings plus the backend it (alone) runs on. Split separates the two
// halves for shared-backend construction.
type Config struct {
	Name      string
	Provider  string
	Model     string
	Capacity  int64
	BlockSize int64

	// Provisioned budgets (paper Table I).
	ThroughputBudget float64 // bytes/s, reads+writes combined
	BudgetBurst      float64 // token bucket burst, bytes
	IOPSBudget       float64 // I/O operations per second
	IOPSBurst        float64 // IOPS bucket burst
	IOPSChunkBytes   int64   // bytes covered by one IOPS token (e.g. 256 KiB on io2)

	// Frontend (virtio + EBS client) processing.
	FrontendSlots   int
	FrontendLatency sim.Dist

	Net     netsim.Config
	Cluster cluster.Config

	// Flow limiter (Observation #2): when cleaning debt exceeds
	// SpareFrac×Capacity, the write path is clamped to ThrottleRate.
	// SpareFrac <= 0 disables throttling (ESSD-2 behaviour within the
	// paper's 3× experiment).
	SpareFrac    float64
	ThrottleRate float64

	// Burst credits (optional): burstable volume classes (AWS gp2-style)
	// sustain BurstBaseline bytes/s, may spend banked credits up to the
	// ThroughputBudget ceiling, and bank at most BurstCreditBytes. When
	// BurstBaseline > 0 the throughput budget behaves like the burst
	// ceiling of such a tier.
	BurstBaseline    float64
	BurstCreditBytes float64

	// Isolation and the volume's scheduling parameters (see BackendConfig
	// and VolumeConfig); all inert at their zero values. New fields stay
	// at the end of the struct for cache-label stability.
	Isolation    qos.Isolation
	Weight       float64
	ReservedRate float64
}

// Split divides the flat config into its shared-backend and per-volume
// halves.
func (c Config) Split() (BackendConfig, VolumeConfig) {
	return BackendConfig{Net: c.Net, Cluster: c.Cluster, Isolation: c.Isolation}, VolumeConfig{
		Name:             c.Name,
		Provider:         c.Provider,
		Model:            c.Model,
		Capacity:         c.Capacity,
		BlockSize:        c.BlockSize,
		ThroughputBudget: c.ThroughputBudget,
		BudgetBurst:      c.BudgetBurst,
		IOPSBudget:       c.IOPSBudget,
		IOPSBurst:        c.IOPSBurst,
		IOPSChunkBytes:   c.IOPSChunkBytes,
		FrontendSlots:    c.FrontendSlots,
		FrontendLatency:  c.FrontendLatency,
		SpareFrac:        c.SpareFrac,
		ThrottleRate:     c.ThrottleRate,
		BurstBaseline:    c.BurstBaseline,
		BurstCreditBytes: c.BurstCreditBytes,
		Weight:           c.Weight,
		ReservedRate:     c.ReservedRate,
	}
}

// Validate reports a descriptive error for inconsistent configuration.
func (c Config) Validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	_, vcfg := c.Split()
	return vcfg.Validate(c.Cluster.ChunkBytes)
}

// Backend is the shared storage side of the ESSD stack: one cluster and
// one network fabric serving every attached volume. Volumes contend on the
// backend's resources (node streams, fabric pipes, the background cleaner)
// and the backend attributes usage per volume.
type Backend struct {
	eng  *sim.Engine
	cfg  BackendConfig
	net  *netsim.Network
	cl   *cluster.Cluster
	vols []*ESSD
}

// NewBackend builds a shared storage backend on the engine. It panics on
// invalid configuration.
func NewBackend(eng *sim.Engine, cfg BackendConfig, rng *sim.RNG) *Backend {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		rng = sim.NewRNG(0xbacc, 0x3d)
	}
	return newBackend(eng, cfg, rng)
}

// newBackend derives the net and cluster RNG streams from rng in the fixed
// order the single-volume constructor has always used, so New remains
// draw-for-draw identical to the pre-backend stack.
func newBackend(eng *sim.Engine, cfg BackendConfig, rng *sim.RNG) *Backend {
	b := &Backend{eng: eng, cfg: cfg}
	b.net = netsim.New(eng, cfg.Net, rng.Derive("net"))
	b.cl = cluster.New(eng, cfg.Cluster, rng.Derive("cluster"))
	// Both installs are no-ops under the default FIFO policy — not
	// installing a scheduler is what keeps the default byte-identical.
	b.net.SetIsolation(cfg.Isolation)
	b.cl.SetIsolation(cfg.Isolation)
	return b
}

// Engine returns the simulation engine the backend runs on.
func (b *Backend) Engine() *sim.Engine { return b.eng }

// Cluster exposes the shared storage cluster (debt, node balance).
func (b *Backend) Cluster() *cluster.Cluster { return b.cl }

// Network exposes the shared fabric (backlogs, per-direction bytes).
func (b *Backend) Network() *netsim.Network { return b.net }

// Debt returns the cluster-wide pooled cleaning debt in bytes — the value
// every attached volume's flow limiter observes.
func (b *Backend) Debt() int64 { return b.cl.Debt() }

// Volumes returns the attached volumes in attach order.
func (b *Backend) Volumes() []*ESSD { return b.vols }

// ReleaseResources returns every attached volume's pooled buffers for reuse
// by later experiment cells. The backend and its volumes must not be used
// afterwards.
func (b *Backend) ReleaseResources() {
	for _, v := range b.vols {
		v.ReleaseResources()
	}
}

// VolumeStats tallies one attached volume's use of the shared backend.
type VolumeStats struct {
	Name                  string
	Writes, Reads         uint64 // chunk-level cluster operations
	WriteBytes, ReadBytes int64  // cluster payload bytes
	DebtAdded             int64  // cleaning debt contributed to the pool
	FabricUp, FabricDown  int64  // fabric payload bytes per direction
}

// VolumeStats returns per-volume accounting for every attached volume, in
// attach order.
func (b *Backend) VolumeStats() []VolumeStats {
	out := make([]VolumeStats, len(b.vols))
	for i, v := range b.vols {
		out[i] = b.statsFor(v)
	}
	return out
}

// statsFor assembles one volume's VolumeStats from the cluster flow and
// fabric flow counters.
func (b *Backend) statsFor(v *ESSD) VolumeStats {
	fs := b.cl.FlowStats(v.flow)
	return VolumeStats{
		Name:       v.cfg.Name,
		Writes:     fs.Writes,
		Reads:      fs.Reads,
		WriteBytes: fs.WriteBytes,
		ReadBytes:  fs.ReadBytes,
		DebtAdded:  fs.DebtAdded,
		FabricUp:   v.nf.MovedUp(),
		FabricDown: v.nf.MovedDown(),
	}
}

// Attach builds a volume on the shared backend. It panics on invalid
// configuration. The volume's RNG stream is derived from rng and the
// volume name. Note that deriving consumes one draw from rng, so when
// several Attach calls share one parent RNG their order is part of the
// deterministic construction sequence — reordering them re-seeds the
// later volumes. Pass an independent RNG per volume (as the root
// AttachVolume helper does) for attach-order independence.
func (b *Backend) Attach(cfg VolumeConfig, rng *sim.RNG) *ESSD {
	if err := cfg.Validate(b.cfg.Cluster.ChunkBytes); err != nil {
		panic(err)
	}
	if rng == nil {
		rng = sim.NewRNG(0xe55d, 0x10)
	}
	return b.attach(cfg, rng.Derive("essd:"+cfg.Name))
}

// attach wires a validated volume onto the backend using rng as the
// volume's own stream (already derived by the caller).
func (b *Backend) attach(cfg VolumeConfig, rng *sim.RNG) *ESSD {
	e := &ESSD{eng: b.eng, cfg: cfg, rng: rng, be: b}
	e.fe = sim.NewServer(b.eng, "frontend", cfg.FrontendSlots)
	weight := cfg.Weight
	if weight <= 0 {
		weight = 1
	}
	e.nf = b.net.NewFlowQoS(cfg.Name, weight, cfg.ReservedRate)
	e.flow = b.cl.RegisterFlow(cfg.Name)
	b.cl.SetFlowQoS(e.flow, weight, cfg.ReservedRate)
	burst := cfg.BudgetBurst
	if burst <= 0 {
		burst = cfg.ThroughputBudget / 100 // 10 ms of budget by default
	}
	e.bytesTb = qos.NewTokenBucket(b.eng, cfg.ThroughputBudget, burst)
	iopsBurst := cfg.IOPSBurst
	if iopsBurst <= 0 {
		iopsBurst = cfg.IOPSBudget / 100
	}
	e.iopsTb = qos.NewTokenBucket(b.eng, cfg.IOPSBudget, iopsBurst)
	e.limiter = &qos.FlowLimiter{
		DebtThreshold: int64(cfg.SpareFrac * float64(cfg.Capacity)),
		ThrottledRate: cfg.ThrottleRate,
	}
	if cfg.BurstBaseline > 0 {
		e.credits = qos.NewCreditBucket(b.eng, cfg.BurstBaseline,
			cfg.ThroughputBudget, cfg.BurstCreditBytes)
	}
	nblocks := cfg.Capacity / cfg.BlockSize
	e.written = acquireBitmap((nblocks + 63) / 64)
	b.vols = append(b.vols, e)
	return e
}

// Counters tallies host-visible ESSD activity.
type Counters struct {
	Reads, Writes, Trims, Flushes uint64
	ReadBytes, WriteBytes         int64
	SubWrites, SubReads           uint64 // chunk-level operations after splitting
	UnwrittenReads                uint64 // reads served from the zero map
}

// ESSD is the assembled elastic SSD volume. It implements blockdev.Device.
type ESSD struct {
	eng *sim.Engine
	cfg VolumeConfig
	rng *sim.RNG

	be   *Backend
	nf   *netsim.Flow // this volume's tagged traffic on the shared fabric
	flow int          // this volume's accounting flow in the shared cluster

	fe      *sim.Server
	bytesTb *qos.TokenBucket
	iopsTb  *qos.TokenBucket
	limiter *qos.FlowLimiter
	wClamp  *qos.TokenBucket  // engaged write clamp; nil until throttled
	credits *qos.CreditBucket // burstable tiers only; nil otherwise

	written []uint64 // bitmap: block ever written (for debt + zero reads)

	counters Counters

	// Request tracing (SetTracer): nil by default, costing the hot path
	// one branch per Submit. trcSeq is the per-volume request sequence
	// the tracer samples on.
	trc    *obs.Tracer
	trcSeq uint64

	// Intrusive free lists of pooled per-request ops (see ioOp): the
	// steady-state Submit path allocates nothing.
	freeOps  *ioOp
	freeSubs *subOp
}

// New builds a single-volume ESSD on a private backend. It panics on
// invalid configuration. The result is draw-for-draw identical to the
// pre-shared-backend stack: the same RNG derivation chain feeds the
// frontend, network, and cluster.
func New(eng *sim.Engine, cfg Config, rng *sim.RNG) *ESSD {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		rng = sim.NewRNG(0xe55d, 0x10)
	}
	rng = rng.Derive("essd:" + cfg.Name)
	bcfg, vcfg := cfg.Split()
	return newBackend(eng, bcfg, rng).attach(vcfg, rng)
}

// Credits returns the banked burst credits in bytes, or -1 when the
// volume is not a burstable tier.
func (e *ESSD) Credits() float64 {
	if e.credits == nil {
		return -1
	}
	return e.credits.Credits()
}

// Burstable reports whether the volume is a credit-backed burstable tier.
func (e *ESSD) Burstable() bool { return e.credits != nil }

// CreditExhaustions counts the times the burst-credit balance hit zero
// (always 0 on non-burstable tiers).
func (e *ESSD) CreditExhaustions() uint64 {
	if e.credits == nil {
		return 0
	}
	return e.credits.Exhaustions()
}

// CreditExhaustedAt returns the virtual time the burst-credit balance first
// hit zero, or -1 when it never has (or the tier is not burstable).
func (e *ESSD) CreditExhaustedAt() sim.Time {
	if e.credits == nil {
		return -1
	}
	return e.credits.ExhaustedAt()
}

// CreditFloor returns the post-exhaustion sustained rate in bytes/s, or -1
// when the tier is not burstable.
func (e *ESSD) CreditFloor() float64 {
	if e.credits == nil {
		return -1
	}
	return e.credits.SustainedFloor()
}

// CreditBaseline returns the continuous credit-earn rate in bytes/s, or -1
// when the tier is not burstable. Together with CreditBurst it lets SLO
// searches bound the sustainable offered rate analytically.
func (e *ESSD) CreditBaseline() float64 {
	if e.credits == nil {
		return -1
	}
	return e.credits.Baseline()
}

// CreditBurst returns the credit-backed burst ceiling in bytes/s, or -1
// when the tier is not burstable.
func (e *ESSD) CreditBurst() float64 {
	if e.credits == nil {
		return -1
	}
	return e.credits.Burst()
}

// spendCredits serializes n bytes through the burst-credit rate before
// done, when the volume is a burstable tier.
func (e *ESSD) spendCredits(n int64, done func()) {
	if e.credits == nil {
		done()
		return
	}
	e.credits.Acquire(n, done)
}

// Name implements blockdev.Device.
func (e *ESSD) Name() string { return e.cfg.Name }

// Capacity implements blockdev.Device.
func (e *ESSD) Capacity() int64 { return e.cfg.Capacity }

// BlockSize implements blockdev.Device.
func (e *ESSD) BlockSize() int { return int(e.cfg.BlockSize) }

// Engine implements blockdev.Device.
func (e *ESSD) Engine() *sim.Engine { return e.eng }

// Counters returns host-visible activity counters.
func (e *ESSD) Counters() Counters { return e.counters }

// Backend returns the (possibly shared) storage backend the volume is
// attached to.
func (e *ESSD) Backend() *Backend { return e.be }

// BackendUse returns this volume's per-volume accounting on the shared
// backend: cluster operations, payload bytes, contributed debt, and fabric
// bytes.
func (e *ESSD) BackendUse() VolumeStats { return e.be.statsFor(e) }

// Throttled reports whether the provider flow limiter has engaged.
func (e *ESSD) Throttled() bool { return e.limiter.Engaged() }

// ThrottledAt returns the virtual time the flow limiter engaged.
func (e *ESSD) ThrottledAt() sim.Time { return e.limiter.EngagedAt() }

// BudgetStall returns cumulative time spent waiting on the throughput budget.
func (e *ESSD) BudgetStall() sim.Duration { return e.bytesTb.StallTime() }

// ReleaseResources returns the volume's pooled buffers (the written bitmap
// and the op records) for reuse by later experiment cells. The volume must
// not serve I/O afterwards; call only once the cell's measurement and
// inspection are done.
func (e *ESSD) ReleaseResources() {
	releaseBitmap(e.written)
	e.written = nil
	poolOps(e.freeOps, e.freeSubs)
	e.freeOps, e.freeSubs = nil, nil
}

// Precondition marks the first fillFrac of the volume as written, as if it
// had been filled once (no simulated time, no cleaning debt).
func (e *ESSD) Precondition(fillFrac float64) {
	if fillFrac <= 0 {
		return
	}
	if fillFrac > 1 {
		fillFrac = 1
	}
	nblocks := e.cfg.Capacity / e.cfg.BlockSize
	limit := int64(fillFrac * float64(nblocks))
	// Fill whole 64-block words, then the partial tail — bit-identical to
	// setting each block's bit, at 1/64 the iterations (preconditioning a
	// fleet-sized volume block-by-block dominated whole-sweep profiles).
	words := limit >> 6
	for w := int64(0); w < words; w++ {
		e.written[w] = ^uint64(0)
	}
	for b := words << 6; b < limit; b++ {
		e.written[b>>6] |= 1 << uint(b&63)
	}
}

func (e *ESSD) isWritten(block int64) bool {
	return e.written[block>>6]&(1<<uint(block&63)) != 0
}

// markWritten sets the written bits for the request range and returns the
// number of bytes that were overwrites (i.e. new cleaning debt). Interior
// 64-block words are counted and set with one popcount/store each, so a
// 256 KiB request touches a handful of words instead of 64 bits.
func (e *ESSD) markWritten(off, size int64) int64 {
	var overwritten int64
	b := off / e.cfg.BlockSize
	end := (off + size) / e.cfg.BlockSize
	for ; b < end && b&63 != 0; b++ {
		if e.isWritten(b) {
			overwritten++
		} else {
			e.written[b>>6] |= 1 << uint(b&63)
		}
	}
	for ; b+64 <= end; b += 64 {
		w := e.written[b>>6]
		overwritten += int64(bits.OnesCount64(w))
		e.written[b>>6] = ^uint64(0)
	}
	for ; b < end; b++ {
		if e.isWritten(b) {
			overwritten++
		} else {
			e.written[b>>6] |= 1 << uint(b&63)
		}
	}
	return overwritten * e.cfg.BlockSize
}

// allWritten reports whether every block in the range has been written.
func (e *ESSD) allWritten(off, size int64) bool {
	b := off / e.cfg.BlockSize
	end := (off + size) / e.cfg.BlockSize
	for ; b < end && b&63 != 0; b++ {
		if !e.isWritten(b) {
			return false
		}
	}
	for ; b+64 <= end; b += 64 {
		if e.written[b>>6] != ^uint64(0) {
			return false
		}
	}
	for ; b < end; b++ {
		if !e.isWritten(b) {
			return false
		}
	}
	return true
}

// iopsCost returns the IOPS tokens one request consumes.
func (e *ESSD) iopsCost(size int64) float64 {
	n := (size + e.cfg.IOPSChunkBytes - 1) / e.cfg.IOPSChunkBytes
	if n < 1 {
		n = 1
	}
	return float64(n)
}

// subCount returns how many chunk-boundary subranges [off, off+size)
// splits into — the number of distinct chunks the range touches. The
// dispatch paths use it to know the fan-in count up front and then walk the
// boundaries arithmetically, with no per-request slice.
func (e *ESSD) subCount(off, size int64) int {
	chunk := e.be.cfg.Cluster.ChunkBytes
	return int((off+size-1)/chunk - off/chunk + 1)
}

// Submit implements blockdev.Device. Every request rides one pooled ioOp
// through the frontend → QoS → dispatch stage chain; the accounting that
// the old closure chain did at submission time (counters, debt, limiter
// observation) still happens here, synchronously.
func (e *ESSD) Submit(r *blockdev.Request) {
	blockdev.Validate(e, r)
	r.Issued = e.eng.Now()
	switch r.Op {
	case blockdev.Write:
		e.counters.Writes++
		e.counters.WriteBytes += r.Size
		debt := e.markWritten(r.Offset, r.Size)
		if debt > 0 {
			e.be.cl.AddDebtFor(e.flow, debt)
		}
		// Under isolation each volume observes the shared (admitted) pool
		// plus only its own private excess — a neighbour's churn beyond the
		// admission rate cannot advance this volume's throttle onset. Under
		// fifo this is exactly the pooled Debt() it always was.
		e.limiter.Observe(e.eng.Now(), e.be.cl.DebtObservedBy(e.flow), e.writeClamp())
	case blockdev.Read:
		e.counters.Reads++
		e.counters.ReadBytes += r.Size
	case blockdev.Trim:
		e.counters.Trims++
	case blockdev.Flush:
		e.counters.Flushes++
	default:
		panic(fmt.Sprintf("essd: unknown op %v", r.Op))
	}
	o := e.getOp(r)
	if e.trc != nil {
		o.trc = e.trc.Start(e.cfg.Name, e.flow, r.Op.String(), e.trcSeq)
		e.trcSeq++
	}
	svc := e.cfg.FrontendLatency.Sample(e.rng)
	if o.trc != nil {
		o.t0 = r.Issued
		o.tsvc = svc
	}
	e.fe.Visit(svc, o.onFE)
}

func (e *ESSD) complete(r *blockdev.Request) {
	if r.OnComplete != nil {
		r.OnComplete(r, e.eng.Now())
	}
}

// writeClamp lazily creates the throttle bucket so the limiter has
// something to clamp; before engagement writes bypass it entirely.
func (e *ESSD) writeClamp() *qos.TokenBucket {
	if e.wClamp == nil {
		e.wClamp = qos.NewTokenBucket(e.eng, e.cfg.ThroughputBudget, e.cfg.ThroughputBudget/50)
	}
	return e.wClamp
}

// ioOp carries one request through the device's stage chain with every
// continuation bound once at construction, so a steady-state Submit
// allocates nothing. The stages run in exactly the order (and with exactly
// the RNG draws) of the closure chain they replace:
//
//	write: frontend → IOPS bucket → bytes bucket [→ write clamp when the
//	       limiter engaged] → burst credits → per-chunk fan-out
//	read:  frontend → IOPS → bytes → credits → fan-out (written ranges),
//	       or two control hops (never-written ranges)
//	trim/flush: frontend → two control hops
type ioOp struct {
	e   *ESSD
	r   *blockdev.Request
	rem int // outstanding chunk subrequests

	// Trace context, set only for sampled requests under SetTracer; nil
	// keeps every stage on the untouched pooled hot path. t0/tsvc track
	// the current stage's start and the frontend service sample; clmp
	// marks a pending throttle-clamp gate span.
	trc  *obs.Req
	t0   sim.Time
	tsvc sim.Duration
	clmp bool

	onFE      func()
	onIOPS    func()
	onBytes   func()
	onTokens  func()
	onCredits func()
	onSub     func()
	onHop     func()
	onFinish  func()

	nextFree *ioOp
}

func (e *ESSD) getOp(r *blockdev.Request) *ioOp {
	o := e.freeOps
	if o != nil {
		e.freeOps = o.nextFree
		o.nextFree = nil
	} else if o = pooledOp(); o != nil {
		o.e = e
	} else {
		o = &ioOp{e: e}
		o.onFE = o.feDone
		o.onIOPS = o.iopsDone
		o.onBytes = o.bytesDone
		o.onTokens = o.tokensDone
		o.onCredits = o.creditsDone
		o.onSub = o.subDone
		o.onHop = o.hopDone
		o.onFinish = o.finish
	}
	o.r = r
	return o
}

// release returns the op to the free list and fires the request's
// completion last, so a completion that submits new I/O reuses this op.
func (o *ioOp) release() {
	e, r := o.e, o.r
	if o.trc != nil {
		now := e.eng.Now()
		o.trc.Span("req", "request", r.Issued, now, 0, "",
			fmt.Sprintf("%s %d B", r.Op, r.Size))
		o.trc = nil
		o.clmp = false
	}
	o.r = nil
	o.nextFree = e.freeOps
	e.freeOps = o
	e.complete(r)
}

func (o *ioOp) feDone() {
	e, r := o.e, o.r
	if o.trc != nil {
		now := e.eng.Now()
		o.trc.Span("vol", "frontend", o.t0, now, now.Sub(o.t0)-o.tsvc, "", e.fe.Name())
		o.t0 = now
	}
	switch r.Op {
	case blockdev.Write:
		e.iopsTb.Take(e.iopsCost(r.Size), o.onIOPS)
	case blockdev.Read:
		// Reads of never-written ranges are served from volume metadata
		// without touching the cluster data path.
		if e.allWritten(r.Offset, r.Size) {
			e.iopsTb.Take(e.iopsCost(r.Size), o.onIOPS)
			return
		}
		e.counters.UnwrittenReads++
		e.nf.Hop(o.onHop)
	case blockdev.Trim:
		for b := r.Offset / e.cfg.BlockSize; b < (r.Offset+r.Size)/e.cfg.BlockSize; b++ {
			e.written[b>>6] &^= 1 << uint(b&63)
		}
		e.nf.Hop(o.onHop)
	case blockdev.Flush:
		// Journal-acknowledged writes are already durable; a flush is one
		// round trip.
		e.nf.Hop(o.onHop)
	}
}

func (o *ioOp) iopsDone() {
	if o.trc != nil {
		now := o.e.eng.Now()
		o.trc.Span("vol", "iops-gate", o.t0, now, now.Sub(o.t0), "", "")
		o.t0 = now
	}
	o.e.bytesTb.Take(float64(o.r.Size), o.onBytes)
}

// bytesDone charges the engaged write clamp after the combined budget —
// the second half of the old takeWriteTokens; reads and unengaged writes
// fall straight through.
func (o *ioOp) bytesDone() {
	e := o.e
	if o.trc != nil {
		now := e.eng.Now()
		o.trc.Span("vol", "bw-gate", o.t0, now, now.Sub(o.t0), "", "")
		o.t0 = now
	}
	if o.r.Op == blockdev.Write && e.limiter.Engaged() {
		if o.trc != nil {
			o.clmp = true
		}
		e.writeClamp().Take(float64(o.r.Size), o.onTokens)
		return
	}
	o.tokensDone()
}

func (o *ioOp) tokensDone() {
	if o.trc != nil {
		now := o.e.eng.Now()
		if o.clmp {
			o.trc.Span("vol", "throttle", o.t0, now, now.Sub(o.t0), "", "cleaner-debt clamp")
			o.clmp = false
		}
		o.t0 = now
	}
	o.e.spendCredits(o.r.Size, o.onCredits)
}

// creditsDone fans the request out into chunk-boundary subrequests, each
// carried by a pooled subOp. Payload writes cross the network once per
// subrequest, then the cluster replicates them; reads send a command hop
// up and stream the payload down.
func (o *ioOp) creditsDone() {
	e, r := o.e, o.r
	var now sim.Time
	if o.trc != nil {
		now = e.eng.Now()
		if e.credits != nil {
			o.trc.Span("vol", "credits", o.t0, now, now.Sub(o.t0), "", "burst-credit drain")
		}
	}
	chunkBytes := e.be.cfg.Cluster.ChunkBytes
	o.rem = e.subCount(r.Offset, r.Size)
	off, left := r.Offset, r.Size
	write := r.Op == blockdev.Write
	idx := 0
	for left > 0 {
		sz := chunkBytes - off%chunkBytes
		if sz > left {
			sz = left
		}
		s := e.getSub(o, off/chunkBytes, sz)
		if o.trc != nil {
			s.trc = o.trc
			s.lane = fmt.Sprintf("c%d", idx)
			s.t0 = now
		}
		if write {
			e.counters.SubWrites++
			e.nf.SendUp(sz, s.onNet)
		} else {
			e.counters.SubReads++
			e.nf.Hop(s.onNet)
		}
		off += sz
		left -= sz
		idx++
	}
}

func (o *ioOp) subDone() {
	o.rem--
	if o.rem == 0 {
		o.release()
	}
}

// hopDone/finish are the two control hops of the no-payload completions
// (unwritten reads, trims, flushes).
func (o *ioOp) hopDone() { o.e.nf.Hop(o.onFinish) }

func (o *ioOp) finish() { o.release() }

// subOp is one chunk subrequest of an ioOp: network leg, cluster
// operation, and the return leg, after which the fan-in counter on the
// parent op decides completion.
type subOp struct {
	o        *ioOp
	chunk    int64
	sz       int64
	onNet    func()
	onCl     func()
	nextFree *subOp

	// Trace context (sampled requests only): the chunk's lane and the
	// start of its fabric uplink leg.
	trc  *obs.Req
	lane string
	t0   sim.Time
}

func (e *ESSD) getSub(o *ioOp, chunk, sz int64) *subOp {
	s := e.freeSubs
	if s != nil {
		e.freeSubs = s.nextFree
		s.nextFree = nil
	} else if s = pooledSub(); s == nil {
		s = &subOp{}
		s.onNet = s.netDone
		s.onCl = s.clDone
	}
	s.o = o
	s.chunk = chunk
	s.sz = sz
	return s
}

func (s *subOp) netDone() {
	o := s.o
	e := o.e
	if o.r.Op == blockdev.Write {
		if s.trc != nil {
			now := e.eng.Now()
			s.trc.Span(s.lane, "net-up", s.t0, now,
				now.Sub(s.t0)-e.be.net.UpTransferTime(s.sz), e.polLabel(), "fabric uplink")
		}
		e.be.cl.WriteForTraced(e.flow, s.chunk, s.sz, s.onCl, s.trc, s.lane)
		return
	}
	e.be.cl.ReadForTraced(e.flow, s.chunk, s.sz, s.onCl, s.trc, s.lane)
}

// clDone releases the subOp before issuing the return leg — the remaining
// state (the fan-in) lives on the parent op.
func (s *subOp) clDone() {
	o := s.o
	e := o.e
	sz := s.sz
	trc, lane := s.trc, s.lane
	s.o = nil
	s.trc = nil
	s.lane = ""
	s.nextFree = e.freeSubs
	e.freeSubs = s
	if o.r.Op == blockdev.Write {
		e.nf.Hop(o.onSub)
		return
	}
	if trc != nil {
		start := e.eng.Now()
		e.nf.SendDown(sz, func() {
			end := e.eng.Now()
			trc.Span(lane, "net-down", start, end,
				end.Sub(start)-e.be.net.DownTransferTime(sz), e.polLabel(), "fabric downlink")
			o.onSub()
		})
		return
	}
	e.nf.SendDown(sz, o.onSub)
}

var _ blockdev.Device = (*ESSD)(nil)
