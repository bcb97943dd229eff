// Package netsim models the datacenter network between the compute cluster
// and the storage cluster (paper Fig 1): per-direction bandwidth pipes plus
// a jittered per-hop propagation/processing delay. This network is the
// dominant term in the ESSD latency gap of Observation #1.
//
// A Network may be shared by several clients (the multi-tenant fabric of a
// disaggregated backend): each client tags its traffic with a Flow, which
// accounts bytes per direction while every flow contends on the same two
// pipes — the fabric-contention half of cross-tenant interference.
// SetIsolation installs a qos.Isolation scheduling policy on both pipes;
// flows created with NewFlowQoS then share each direction by weight (or
// reserved rate) instead of arrival order, while the default keeps the
// FIFO fabric byte-identical.
package netsim

import (
	"essdsim/internal/obs"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
)

// Config parameterizes a network path between two endpoints.
type Config struct {
	// HopLatency is the one-way propagation plus switching/processing
	// latency distribution for one traversal of the fabric.
	HopLatency sim.Dist
	// UplinkBW is the client-to-cluster bandwidth in bytes/s.
	UplinkBW float64
	// DownlinkBW is the cluster-to-client bandwidth in bytes/s.
	DownlinkBW float64
}

// Network is a full-duplex path: an uplink pipe, a downlink pipe, and a
// sampled hop latency applied to each traversal.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	rng   *sim.RNG
	up    *sim.Pipe
	down  *sim.Pipe
	flows int

	freeXfers *xfer // intrusive free list of pooled transfer jobs
}

// xfer is one payload transfer in flight: the hop latency sampled at
// submission plus the caller's completion, carried through the pipe by a
// continuation bound once at construction — the steady-state send path
// allocates nothing.
type xfer struct {
	n        *Network
	lat      sim.Duration
	done     func()
	onDrain  func()
	nextFree *xfer
}

func (n *Network) getXfer(lat sim.Duration, done func()) *xfer {
	x := n.freeXfers
	if x != nil {
		n.freeXfers = x.nextFree
		x.nextFree = nil
	} else {
		x = &xfer{n: n}
		x.onDrain = x.drain
	}
	x.lat = lat
	x.done = done
	return x
}

// drain runs when the last byte leaves the pipe: the payload then pays the
// sampled hop latency before the caller's completion fires.
func (x *xfer) drain() {
	n, lat, done := x.n, x.lat, x.done
	x.done = nil
	x.nextFree = n.freeXfers
	n.freeXfers = x
	n.eng.Schedule(lat, done)
}

// New builds a network path on the engine.
func New(eng *sim.Engine, cfg Config, rng *sim.RNG) *Network {
	if rng == nil {
		rng = sim.NewRNG(0x0e7, 0x51b)
	}
	return &Network{
		eng:  eng,
		cfg:  cfg,
		rng:  rng,
		up:   sim.NewPipe(eng, "net-up", cfg.UplinkBW),
		down: sim.NewPipe(eng, "net-down", cfg.DownlinkBW),
	}
}

// SetIsolation installs the isolation policy's flow scheduler on the
// uplink and downlink pipes. A FIFO (zero-value) policy installs nothing,
// keeping the default path byte-identical to the unscheduled pipes.
// Install before the first transfer.
func (n *Network) SetIsolation(iso qos.Isolation) {
	if !iso.Enabled() {
		return
	}
	q := iso.QuantumOrDefault()
	n.up.SetQueue(iso.NewQueue(n.eng, q))
	n.down.SetQueue(iso.NewQueue(n.eng, q))
}

func (n *Network) sendUp(flow int, bytes int64, done func()) {
	x := n.getXfer(n.cfg.HopLatency.Sample(n.rng), done)
	n.up.TransferFlow(flow, bytes, x.onDrain)
}

func (n *Network) sendDown(flow int, bytes int64, done func()) {
	x := n.getXfer(n.cfg.HopLatency.Sample(n.rng), done)
	n.down.TransferFlow(flow, bytes, x.onDrain)
}

// HopSample draws one hop latency without moving payload — used for
// intra-cluster control messages (e.g. replication acks).
func (n *Network) HopSample() sim.Duration {
	return n.cfg.HopLatency.Sample(n.rng)
}

// Hop schedules done after one sampled hop latency with no payload.
func (n *Network) Hop(done func()) {
	n.eng.Schedule(n.HopSample(), done)
}

// UpTransferTime returns the uplink's pure service time for n bytes
// (no queueing, no hop latency) — the service half of a traced
// transfer's queue-wait/service split.
func (n *Network) UpTransferTime(bytes int64) sim.Duration { return n.up.TransferTime(bytes) }

// DownTransferTime is UpTransferTime for the downlink.
func (n *Network) DownTransferTime(bytes int64) sim.Duration { return n.down.TransferTime(bytes) }

// InstallProbes registers the fabric's state gauges: the committed
// queueing delay of each direction's pipe. Per-flow byte attribution is
// installed by each flow's owner (essd.ESSD.InstallProbes).
func (n *Network) InstallProbes(p *obs.Prober) {
	p.Add("net/up/backlog_s", func() float64 { return n.up.Backlog().Seconds() })
	p.Add("net/down/backlog_s", func() float64 { return n.down.Backlog().Seconds() })
}

// MovedUp returns total bytes sent toward the cluster.
func (n *Network) MovedUp() int64 { return n.up.Moved() }

// MovedDown returns total bytes sent toward the client.
func (n *Network) MovedDown() int64 { return n.down.Moved() }

// Flow tags one client's traffic on a shared network path. Transfers go
// through the network's shared pipes — flows contend with each other for
// bandwidth — while per-flow byte counters attribute the load, which is
// what lets a shared backend report which volume saturated the fabric.
type Flow struct {
	n        *Network
	name     string
	id       int
	up, down int64
}

// NewFlow registers a named traffic flow on the network. The name is
// descriptive only (volume name, tenant id); under the default FIFO
// policy flows are not rate-limited individually.
func (n *Network) NewFlow(name string) *Flow {
	return n.NewFlowQoS(name, 1, 0)
}

// NewFlowQoS registers a flow with scheduling parameters: weight is its
// share at the fabric pipes under wfq/reservation, reservedBps the
// strictly-first bandwidth under reservation. Both are inert under the
// default FIFO policy.
func (n *Network) NewFlowQoS(name string, weight, reservedBps float64) *Flow {
	f := &Flow{n: n, name: name, id: n.flows}
	n.flows++
	n.up.SetFlow(f.id, weight, reservedBps)
	n.down.SetFlow(f.id, weight, reservedBps)
	return f
}

// Name returns the flow's tag.
func (f *Flow) Name() string { return f.name }

// SendUp transfers payload toward the cluster on the shared uplink,
// attributing the bytes to this flow.
func (f *Flow) SendUp(bytes int64, done func()) {
	f.up += bytes
	f.n.sendUp(f.id, bytes, done)
}

// SendDown transfers payload toward the client on the shared downlink,
// attributing the bytes to this flow.
func (f *Flow) SendDown(bytes int64, done func()) {
	f.down += bytes
	f.n.sendDown(f.id, bytes, done)
}

// Hop schedules done after one sampled hop latency with no payload.
func (f *Flow) Hop(done func()) { f.n.Hop(done) }

// MovedUp returns this flow's bytes sent toward the cluster.
func (f *Flow) MovedUp() int64 { return f.up }

// MovedDown returns this flow's bytes sent toward the client.
func (f *Flow) MovedDown() int64 { return f.down }
