// Package cluster models the storage backend of elastic block storage
// (paper Fig 1): a set of storage nodes holding replicated chunks of the
// virtual volume, journal-acknowledged writes, per-node stream limits, and a
// background cleaner whose debt drives the provider flow limiter.
//
// The cluster is where three of the paper's four observations originate:
//
//   - Obs#2: writes land in node journals and are cleaned in the background,
//     so device GC never sits on the critical path; only accumulated
//     cleaning debt (exposed via Debt) eventually triggers throttling.
//   - Obs#3: a volume's sequential window maps to few chunks and therefore
//     few placement groups, bottlenecking on the per-node stream, while
//     random writes fan out across all nodes.
//   - Obs#1 (in part): every access pays journal/data-store service time on
//     top of the network.
//
// A cluster may be shared by several volumes (the disaggregated backend of
// the paper's Fig 1 serves many tenants): callers register a flow per
// volume and submit I/O through WriteFor/ReadFor, which attribute per-flow
// operations, bytes, and cleaning debt while all flows contend on the same
// node servers, streams, and the one background cleaner. The pooled debt is
// what makes one tenant's overwrite churn advance every tenant's flow
// limiter (the cross-tenant face of Obs#2).
//
// SetIsolation makes both couplings schedulable (qos.Isolation): node
// streams, replication links, read bandwidth, and service slots dispatch
// per-flow by weight or reservation instead of FIFO, and each flow's
// contributions to the pooled debt pass through a per-flow admission
// token bucket — excess churn stays in a private account only that flow's
// limiter observes (DebtObservedBy), so one tenant's GC debt cannot
// throttle another. The default (no isolation) is byte-identical to the
// pre-isolation cluster.
package cluster

import (
	"fmt"

	"essdsim/internal/obs"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
)

// Config parameterizes the storage cluster as seen by one volume.
type Config struct {
	Nodes      int   // storage nodes holding this volume's chunks
	ChunkBytes int64 // placement granularity (stripe unit)
	Replicas   int   // total copies, e.g. 3

	// Write path. Each node serves at most WriteSlots concurrent writes for
	// this volume, each costing a WriteService sample, with payload bytes
	// streaming through a per-node pipe of StreamBW bytes/s. These two
	// limits are the Observation #3 levers: sequential windows that fit in
	// one chunk serialize here.
	WriteSlots   int
	WriteService sim.Dist
	StreamBW     float64

	// Replication fan-out: payload leaves the primary over a pipe of
	// ReplBW bytes/s and pays ReplHop latency each way, plus the replica's
	// WriteService.
	ReplBW  float64
	ReplHop sim.Dist

	// Read path.
	ReadSlots   int
	ReadService sim.Dist
	ReadBW      float64 // per-node read bandwidth

	// Cleaner: background compaction drains invalidation debt at this
	// rate (bytes/s). Debt beyond the provider's spare capacity triggers
	// the flow limiter (package qos).
	CleanerRate float64
}

// Validate reports a descriptive error for inconsistent configuration.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("cluster: need at least one node")
	case c.ChunkBytes < 4096:
		return fmt.Errorf("cluster: chunk bytes %d too small", c.ChunkBytes)
	case c.Replicas < 1 || c.Replicas > c.Nodes:
		return fmt.Errorf("cluster: replicas %d out of range for %d nodes", c.Replicas, c.Nodes)
	case c.WriteSlots < 1 || c.ReadSlots < 1:
		return fmt.Errorf("cluster: slots must be positive")
	case c.StreamBW <= 0 || c.ReplBW <= 0 || c.ReadBW <= 0:
		return fmt.Errorf("cluster: bandwidths must be positive")
	case c.WriteService == nil || c.ReadService == nil || c.ReplHop == nil:
		return fmt.Errorf("cluster: service distributions must be set")
	case c.CleanerRate < 0:
		return fmt.Errorf("cluster: cleaner rate must be non-negative")
	}
	return nil
}

// NodeStats counts per-node activity, used to verify placement balance.
type NodeStats struct {
	Writes, Reads         uint64 // operations served as primary
	ReplWrites            uint64 // replica copies received
	WriteBytes, ReadBytes int64
}

type node struct {
	write  *sim.Server
	read   *sim.Server
	stream *sim.Pipe
	repl   *sim.Pipe
	readBW *sim.Pipe
	stats  NodeStats
}

// FlowStats counts one registered flow's (volume's) use of the shared
// cluster: primary operations, payload bytes, and the cleaning debt the
// flow contributed to the pooled cleaner backlog.
type FlowStats struct {
	Name                  string
	Writes, Reads         uint64
	WriteBytes, ReadBytes int64
	DebtAdded             int64
}

// flowIso is one flow's isolation state: its scheduling parameters and
// its cleaner-debt admission bucket (non-FIFO policies only).
type flowIso struct {
	weight   float64
	reserved float64 // reserved bytes/s across the flow's contention points

	tokens   float64 // debt-share admission balance, bytes
	lastFill sim.Time
	private  float64 // debt kept private to this flow, bytes
}

// Cluster is the storage backend for one or more volumes.
type Cluster struct {
	eng   *sim.Engine
	cfg   Config
	rng   *sim.RNG
	nodes []*node
	flows []FlowStats

	debt       int64
	debtUpdate sim.Time
	cleaned    float64 // fractional carry of cleaner progress

	// Isolation (SetIsolation): per-flow scheduling on every node
	// resource plus per-flow debt-share admission. isoOn false keeps the
	// original fully-pooled FIFO paths untouched.
	isoOn      bool
	iso        qos.Isolation
	shareRate  float64 // resolved DebtShareRate
	shareBurst float64 // resolved DebtShareBurst
	fiso       []flowIso

	// Intrusive free lists of pooled per-operation jobs (see writeJob):
	// the steady-state WriteFor/ReadFor paths allocate nothing.
	freeWrites *writeJob
	freeRepls  *replJob
	freeReads  *readJob
}

// writeJob is one replicated chunk write in flight: the leg fan-in counter
// plus the primary-leg continuations, bound once at construction so a
// steady-state write allocates nothing. Service times are still sampled at
// each stage's run time, keeping the RNG draw order of the closure-based
// path.
type writeJob struct {
	c        *Cluster
	flow     int
	rem      int // outstanding durability legs (primary + replicas)
	done     func()
	pn       *node
	onStream func() // primary stream drained → journal write service
	onLeg    func() // one leg durable
	nextFree *writeJob

	// Trace context, set only by WriteForTraced for sampled requests;
	// nil keeps every stage on the untouched hot path.
	trc  *obs.Req
	lane string
	t0   sim.Time
	tb   int64
}

func (c *Cluster) getWriteJob() *writeJob {
	j := c.freeWrites
	if j != nil {
		c.freeWrites = j.nextFree
		j.nextFree = nil
	} else {
		j = &writeJob{c: c}
		j.onStream = j.streamDone
		j.onLeg = j.leg
	}
	return j
}

func (j *writeJob) streamDone() {
	c := j.c
	svc := c.cfg.WriteService.Sample(c.rng)
	if j.trc == nil {
		j.pn.write.VisitFlow(j.flow, svc, j.onLeg)
		return
	}
	// Traced: record the stream transfer's queue/service split and wrap
	// the journal write visit so its span can be emitted at completion.
	// The service draw above happens in the same order as the untraced
	// path, so tracing never shifts the RNG stream.
	now := c.eng.Now()
	pol := c.policyLabel()
	j.trc.Span(j.lane, "stream-xfer", j.t0, now,
		now.Sub(j.t0)-j.pn.stream.TransferTime(j.tb), pol, j.pn.stream.Name())
	trc, lane, name, start := j.trc, j.lane, j.pn.write.Name(), now
	j.pn.write.VisitFlow(j.flow, svc, func() {
		end := c.eng.Now()
		trc.Span(lane, "write-svc", start, end, end.Sub(start)-svc, pol, name)
		j.onLeg()
	})
}

func (j *writeJob) leg() {
	j.rem--
	if j.rem != 0 {
		return
	}
	c, done := j.c, j.done
	j.done = nil
	j.pn = nil
	j.trc = nil
	j.lane = ""
	j.nextFree = c.freeWrites
	c.freeWrites = j
	done()
}

// replJob is one replica leg of a writeJob: repl-pipe drain, hop to the
// replica, its journal write service, and the hop back to the fan-in.
type replJob struct {
	c        *Cluster
	j        *writeJob
	rn       *node
	onRepl   func() // repl pipe drained → hop toward the replica
	onHop    func() // hop arrived → replica journal write service
	onSvc    func() // service done → hop the ack back to the fan-in
	nextFree *replJob

	// Trace context (WriteForTraced only); t0/tsvc are reused as the
	// current stage's start and sampled service time.
	trc  *obs.Req
	lane string
	t0   sim.Time
	tsvc sim.Duration
	pp   *sim.Pipe // primary's repl pipe, for the transfer-time split
	tb   int64
}

func (c *Cluster) getReplJob() *replJob {
	r := c.freeRepls
	if r != nil {
		c.freeRepls = r.nextFree
		r.nextFree = nil
	} else {
		r = &replJob{c: c}
		r.onRepl = r.replDone
		r.onHop = r.hopDone
		r.onSvc = r.svcDone
	}
	return r
}

func (r *replJob) replDone() {
	c := r.c
	hop := c.cfg.ReplHop.Sample(c.rng)
	if r.trc != nil {
		now := c.eng.Now()
		r.trc.Span(r.lane, "repl-xfer", r.t0, now,
			now.Sub(r.t0)-r.pp.TransferTime(r.tb), c.policyLabel(), r.pp.Name())
	}
	c.eng.Schedule(hop, r.onHop)
}

func (r *replJob) hopDone() {
	c := r.c
	svc := c.cfg.WriteService.Sample(c.rng)
	if r.trc != nil {
		r.t0 = c.eng.Now()
		r.tsvc = svc
	}
	r.rn.write.VisitFlow(r.j.flow, svc, r.onSvc)
}

func (r *replJob) svcDone() {
	c, j := r.c, r.j
	if r.trc != nil {
		now := c.eng.Now()
		r.trc.Span(r.lane, "repl-svc", r.t0, now,
			now.Sub(r.t0)-r.tsvc, c.policyLabel(), r.rn.write.Name())
	}
	r.j = nil
	r.rn = nil
	r.trc = nil
	r.lane = ""
	r.pp = nil
	r.nextFree = c.freeRepls
	c.freeRepls = r
	c.eng.Schedule(c.cfg.ReplHop.Sample(c.rng), j.onLeg)
}

// readJob is one chunk read in flight: read service, then the node's read
// bandwidth.
type readJob struct {
	c        *Cluster
	n        *node
	flow     int
	bytes    int64
	done     func()
	onSvc    func()
	nextFree *readJob

	// Trace context, set only by ReadForTraced for sampled requests.
	trc  *obs.Req
	lane string
	t0   sim.Time
	tsvc sim.Duration
}

func (c *Cluster) getReadJob() *readJob {
	j := c.freeReads
	if j != nil {
		c.freeReads = j.nextFree
		j.nextFree = nil
	} else {
		j = &readJob{c: c}
		j.onSvc = j.svcDone
	}
	return j
}

func (j *readJob) svcDone() {
	c, n, flow, bytes, done := j.c, j.n, j.flow, j.bytes, j.done
	trc, lane, t0, tsvc := j.trc, j.lane, j.t0, j.tsvc
	j.n = nil
	j.done = nil
	j.trc = nil
	j.lane = ""
	j.nextFree = c.freeReads
	c.freeReads = j
	if trc == nil {
		n.readBW.TransferFlow(flow, bytes, done)
		return
	}
	now := c.eng.Now()
	pol := c.policyLabel()
	trc.Span(lane, "read-svc", t0, now, now.Sub(t0)-tsvc, pol, n.read.Name())
	pipe := n.readBW
	start := now
	pipe.TransferFlow(flow, bytes, func() {
		end := c.eng.Now()
		trc.Span(lane, "read-bw", start, end, end.Sub(start)-pipe.TransferTime(bytes), pol, pipe.Name())
		done()
	})
}

// New builds the cluster. It panics on invalid configuration.
func New(eng *sim.Engine, cfg Config, rng *sim.RNG) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		rng = sim.NewRNG(0xc105, 0x7e12)
	}
	c := &Cluster{eng: eng, cfg: cfg, rng: rng}
	c.nodes = make([]*node, cfg.Nodes)
	for i := range c.nodes {
		c.nodes[i] = &node{
			write:  sim.NewServer(eng, fmt.Sprintf("n%d-write", i), cfg.WriteSlots),
			read:   sim.NewServer(eng, fmt.Sprintf("n%d-read", i), cfg.ReadSlots),
			stream: sim.NewPipe(eng, fmt.Sprintf("n%d-stream", i), cfg.StreamBW),
			repl:   sim.NewPipe(eng, fmt.Sprintf("n%d-repl", i), cfg.ReplBW),
			readBW: sim.NewPipe(eng, fmt.Sprintf("n%d-readbw", i), cfg.ReadBW),
		}
	}
	return c
}

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// NodeOfChunk returns the primary node index of a chunk. Placement is a
// deterministic multiplicative hash so adjacent chunks land on unrelated
// nodes, as a real placement-group mapping would.
func (c *Cluster) NodeOfChunk(chunk int64) int {
	h := uint64(chunk) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return int(h % uint64(len(c.nodes)))
}

// NodeStats returns a snapshot of node i's counters.
func (c *Cluster) NodeStats(i int) NodeStats { return c.nodes[i].stats }

// RegisterFlow adds a named per-volume accounting flow and returns its id
// for WriteFor/ReadFor/AddDebtFor. Flows share every cluster resource;
// without isolation the id only attributes usage, with it the id also
// keys the per-flow schedulers and the debt-share admission bucket.
func (c *Cluster) RegisterFlow(name string) int {
	c.flows = append(c.flows, FlowStats{Name: name})
	if c.isoOn {
		c.fiso = append(c.fiso, flowIso{
			weight:   1,
			tokens:   c.shareBurst,
			lastFill: c.eng.Now(),
		})
	}
	return len(c.flows) - 1
}

// SetIsolation installs a per-flow scheduler on every node resource and
// switches cleaner debt to per-flow admission. Call before registering
// flows or submitting traffic; a fifo (zero) policy is a no-op, leaving
// the original FIFO paths and the fully pooled debt untouched.
func (c *Cluster) SetIsolation(iso qos.Isolation) {
	if !iso.Enabled() {
		return
	}
	c.isoOn = true
	c.iso = iso
	c.shareRate = iso.DebtShareRate
	if c.shareRate <= 0 {
		c.shareRate = c.cfg.CleanerRate
	}
	c.shareBurst = iso.DebtShareBurst
	if c.shareBurst <= 0 {
		c.shareBurst = c.shareRate // one second of admission
	}
	for range c.flows { // backfill flows registered before isolation
		c.fiso = append(c.fiso, flowIso{weight: 1, tokens: c.shareBurst, lastFill: c.eng.Now()})
	}
	bq := iso.QuantumOrDefault()
	sq := c.serviceQuantum(bq)
	for _, n := range c.nodes {
		n.stream.SetQueue(iso.NewQueue(c.eng, bq))
		n.repl.SetQueue(iso.NewQueue(c.eng, bq))
		n.readBW.SetQueue(iso.NewQueue(c.eng, bq))
		n.write.SetQueue(iso.NewQueue(c.eng, sq))
		n.read.SetQueue(iso.NewQueue(c.eng, sq))
	}
}

// serviceQuantum converts the byte quantum into a service-time quantum
// (nanoseconds) via the node stream bandwidth — the time the stream
// would take to carry one quantum, which keeps the round granularity of
// the servers commensurate with the pipes feeding them.
func (c *Cluster) serviceQuantum(byteQuantum int64) int64 {
	q := int64(float64(byteQuantum) / c.cfg.StreamBW * float64(sim.Second))
	if q < 1 {
		q = 1
	}
	return q
}

// SetFlowQoS sets a registered flow's weight and reserved bytes/s on
// every node resource (no-op without isolation). The reservation is
// enforced per contention point: the flow is guaranteed reservedBps at
// each pipe it traverses, converted to service time at the node servers
// the same way the scheduling quantum is.
func (c *Cluster) SetFlowQoS(flow int, weight, reservedBps float64) {
	if !c.isoOn || flow < 0 {
		return
	}
	if weight <= 0 {
		weight = 1
	}
	c.fiso[flow].weight = weight
	c.fiso[flow].reserved = reservedBps
	reservedSvc := reservedBps / c.cfg.StreamBW * float64(sim.Second)
	for _, n := range c.nodes {
		n.stream.SetFlow(flow, weight, reservedBps)
		n.repl.SetFlow(flow, weight, reservedBps)
		n.readBW.SetFlow(flow, weight, reservedBps)
		n.write.SetFlow(flow, weight, reservedSvc)
		n.read.SetFlow(flow, weight, reservedSvc)
	}
}

// FlowStats returns a snapshot of flow i's counters.
func (c *Cluster) FlowStats(i int) FlowStats { return c.flows[i] }

// WriteFor performs one replicated chunk write of the given payload:
// primary stream + journal-backed write service, then parallel fan-out to
// Replicas-1 peers, acknowledging (done) when all copies are durable. The
// primary operation and payload are attributed to the registered flow
// (pass -1 for untracked).
func (c *Cluster) WriteFor(flow int, chunk int64, bytes int64, done func()) {
	c.WriteForTraced(flow, chunk, bytes, done, nil, "")
}

// WriteForTraced is WriteFor that, when trc is non-nil, records the stages
// of this chunk on the sampled request's trace: the primary stream
// transfer and journal write service on lane, each replica's transfer and
// remote service on lane/r<i>. Tracing allocates a few closures per
// sampled request; service times are sampled in the same order either
// way, so tracing never shifts the RNG stream.
func (c *Cluster) WriteForTraced(flow int, chunk int64, bytes int64, done func(), trc *obs.Req, lane string) {
	if flow >= 0 {
		c.flows[flow].Writes++
		c.flows[flow].WriteBytes += bytes
	}
	p := c.NodeOfChunk(chunk)
	pn := c.nodes[p]
	pn.stats.Writes++
	pn.stats.WriteBytes += bytes
	// Cut-through replication: the primary streams the payload to its
	// peers while ingesting it, so the primary leg and the replica legs
	// proceed in parallel; the write acknowledges when every leg is
	// durable. The primary's repl pipe carries Replicas-1 copies, so its
	// bandwidth must exceed (Replicas-1)× the stream bandwidth for the
	// per-node stream to remain the sequential-write bottleneck.
	j := c.getWriteJob()
	j.flow = flow
	j.done = done
	j.pn = pn
	j.rem = 1 + (c.cfg.Replicas - 1)
	var now sim.Time
	if trc != nil {
		now = c.eng.Now()
		j.trc, j.lane, j.t0, j.tb = trc, lane, now, bytes
	}
	pn.stream.TransferFlow(flow, bytes, j.onStream)
	for i := 0; i < c.cfg.Replicas-1; i++ {
		r := (p + 1 + i) % len(c.nodes)
		rn := c.nodes[r]
		rn.stats.ReplWrites++
		rj := c.getReplJob()
		rj.j = j
		rj.rn = rn
		if trc != nil {
			rj.trc, rj.lane, rj.t0, rj.pp, rj.tb = trc, fmt.Sprintf("%s/r%d", lane, i+1), now, pn.repl, bytes
		}
		pn.repl.TransferFlow(flow, bytes, rj.onRepl)
	}
}

// ReadFor performs one chunk read of the given payload from the chunk's
// primary: read service (index lookup + backend flash) then the node's read
// bandwidth. The operation and payload are attributed to the registered
// flow (pass -1 for untracked).
func (c *Cluster) ReadFor(flow int, chunk int64, bytes int64, done func()) {
	c.ReadForTraced(flow, chunk, bytes, done, nil, "")
}

// ReadForTraced is ReadFor that, when trc is non-nil, records the chunk's
// read service and read-bandwidth stages on the sampled request's trace.
func (c *Cluster) ReadForTraced(flow int, chunk int64, bytes int64, done func(), trc *obs.Req, lane string) {
	if flow >= 0 {
		c.flows[flow].Reads++
		c.flows[flow].ReadBytes += bytes
	}
	p := c.NodeOfChunk(chunk)
	n := c.nodes[p]
	n.stats.Reads++
	n.stats.ReadBytes += bytes
	j := c.getReadJob()
	j.n = n
	j.flow = flow
	j.bytes = bytes
	j.done = done
	svc := c.cfg.ReadService.Sample(c.rng)
	if trc != nil {
		j.trc, j.lane, j.t0, j.tsvc = trc, lane, c.eng.Now(), svc
	}
	n.read.VisitFlow(flow, svc, j.onSvc)
}

// AddDebtFor records freshly invalidated bytes (overwrites of previously
// written data) for the background cleaner, attributed to the registered
// flow (pass -1 for untracked). Under fifo, debt is pooled regardless of
// flow: the cleaner has one backlog, so every attached volume's flow
// limiter sees the sum of all tenants' churn. Under isolation each flow's
// contribution passes a token-bucket admission (DebtShareRate bytes/s
// into the pool); the excess stays private to the flow, observed only by
// its own limiter (DebtObservedBy) — one aggressor's churn can no longer
// throttle everyone.
func (c *Cluster) AddDebtFor(flow int, bytes int64) {
	if flow >= 0 {
		c.flows[flow].DebtAdded += bytes
	}
	c.settleDebt()
	if !c.isoOn || flow < 0 {
		c.debt += bytes
		return
	}
	f := &c.fiso[flow]
	c.fillShare(f)
	admit := float64(bytes)
	if admit > f.tokens {
		admit = f.tokens
	}
	if admit < 0 {
		admit = 0
	}
	whole := int64(admit)
	f.tokens -= float64(whole)
	c.debt += whole
	f.private += float64(bytes - whole)
}

// fillShare accrues a flow's debt-share admission tokens up to now.
func (c *Cluster) fillShare(f *flowIso) {
	now := c.eng.Now()
	dt := now.Sub(f.lastFill).Seconds()
	f.lastFill = now
	if dt <= 0 {
		return
	}
	f.tokens += dt * c.shareRate
	if f.tokens > c.shareBurst {
		f.tokens = c.shareBurst
	}
}

// Debt returns the current uncleaned invalidation debt in bytes: the
// whole backlog under fifo, the shared (admitted) pool under isolation.
func (c *Cluster) Debt() int64 {
	c.settleDebt()
	return c.debt
}

// DebtObservedBy returns the cleaning debt the flow's limiter observes:
// identical to Debt under fifo, and the shared pool plus the flow's own
// private (unadmitted) debt under isolation — a flow always answers for
// its own churn in full, but for its neighbours' only up to the
// admission rate.
func (c *Cluster) DebtObservedBy(flow int) int64 {
	c.settleDebt()
	if !c.isoOn || flow < 0 {
		return c.debt
	}
	return c.debt + int64(c.fiso[flow].private)
}

// settleDebt applies the cleaner's continuous drain up to the current
// time: the shared pool first, then (under isolation) any leftover
// capacity drains the flows' private debt proportionally.
func (c *Cluster) settleDebt() {
	now := c.eng.Now()
	dt := now.Sub(c.debtUpdate).Seconds()
	c.debtUpdate = now
	if dt <= 0 || c.cfg.CleanerRate <= 0 {
		return
	}
	havePrivate := false
	if c.isoOn {
		for i := range c.fiso {
			if c.fiso[i].private > 0 {
				havePrivate = true
				break
			}
		}
	}
	if c.debt == 0 && !havePrivate {
		return
	}
	var spare float64 // whole bytes of capacity beyond the shared pool
	if c.debt > 0 {
		c.cleaned += dt * c.cfg.CleanerRate
		if whole := int64(c.cleaned); whole > 0 {
			c.cleaned -= float64(whole)
			c.debt -= whole
			if c.debt < 0 {
				spare = float64(-c.debt)
				c.debt = 0
				c.cleaned = 0
			}
		}
	} else {
		spare = dt * c.cfg.CleanerRate
	}
	if spare <= 0 || !havePrivate {
		return
	}
	var total float64
	for i := range c.fiso {
		total += c.fiso[i].private
	}
	if total <= spare {
		for i := range c.fiso {
			c.fiso[i].private = 0
		}
		return
	}
	keep := 1 - spare/total
	for i := range c.fiso {
		c.fiso[i].private *= keep
	}
}
