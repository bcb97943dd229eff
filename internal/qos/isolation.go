package qos

import (
	"fmt"

	"essdsim/internal/sim"
)

// IsolationPolicy names the scheduling discipline installed at every
// contention point of a shared backend: the fabric uplink/downlink, the
// per-node stream/replication/read pipes, and the node write/read
// servers.
type IsolationPolicy uint8

const (
	// IsolationFIFO is the default: all flows contend in arrival order,
	// exactly as before isolation existed (byte-identical event order).
	IsolationFIFO IsolationPolicy = iota
	// IsolationWFQ shares each contention point among backlogged flows
	// in proportion to their weights (deficit round-robin).
	IsolationWFQ
	// IsolationReservation serves flows with a ReservedRate strictly
	// first up to that rate, spilling unused capacity into the WFQ pool
	// (work-conserving).
	IsolationReservation
)

// String returns the policy's flag name.
func (p IsolationPolicy) String() string {
	switch p {
	case IsolationFIFO:
		return "fifo"
	case IsolationWFQ:
		return "wfq"
	case IsolationReservation:
		return "reservation"
	}
	return fmt.Sprintf("IsolationPolicy(%d)", uint8(p))
}

// ParseIsolationPolicy maps a flag name to its policy, with a
// descriptive error naming the valid set for anything else.
func ParseIsolationPolicy(name string) (IsolationPolicy, error) {
	switch name {
	case "fifo":
		return IsolationFIFO, nil
	case "wfq":
		return IsolationWFQ, nil
	case "reservation":
		return IsolationReservation, nil
	}
	return 0, fmt.Errorf("qos: unknown isolation policy %q (valid: fifo, wfq, reservation)", name)
}

// Isolation configures per-tenant QoS isolation for a shared backend: the
// scheduling policy at every contention point plus the shaping of the
// cleaner-debt pool. The zero value is plain FIFO with fully pooled debt
// — the exact pre-isolation behaviour.
type Isolation struct {
	Policy IsolationPolicy

	// Quantum is the weighted-fair scheduling quantum in bytes (default
	// 256 KiB): the per-round allocation at the fabric and stream pipes,
	// converted to service time at the node servers.
	Quantum int64

	// DebtShareRate caps how fast one flow's cleaning debt is admitted
	// into the shared pool, in bytes/s (default: the cluster's cleaner
	// rate, so a lone tenant can still use the whole cleaner). Excess
	// debt stays private to the contributing flow: only that flow's
	// limiter observes it. Ignored under fifo, where debt is fully
	// pooled.
	DebtShareRate float64
	// DebtShareBurst is the admission bucket depth in bytes (default one
	// second of DebtShareRate).
	DebtShareBurst float64
}

// Enabled reports whether the configuration departs from plain FIFO.
func (i Isolation) Enabled() bool { return i.Policy != IsolationFIFO }

// QuantumOrDefault returns the scheduling quantum in bytes.
func (i Isolation) QuantumOrDefault() int64 {
	if i.Quantum > 0 {
		return i.Quantum
	}
	return 256 << 10
}

// NewQueue builds the policy's flow scheduler with the quantum expressed
// in the target resource's cost units (bytes for a pipe, service
// nanoseconds for a server). It returns nil for fifo: not installing a
// queue is what keeps the default byte-identical.
func (i Isolation) NewQueue(eng *sim.Engine, quantum int64) sim.FlowQueue {
	switch i.Policy {
	case IsolationWFQ:
		return sim.NewDRRQueue(quantum)
	case IsolationReservation:
		return sim.NewReservationQueue(eng, quantum)
	}
	return nil
}

// Signature renders the configuration for cache labels and variants:
// two Isolation values build identical schedulers exactly when their
// signatures match.
func (i Isolation) Signature() string {
	return fmt.Sprintf("%s/q%d/sr%g/sb%g", i.Policy, i.QuantumOrDefault(), i.DebtShareRate, i.DebtShareBurst)
}

// DebtCouplingFactor is the analytic fraction of a neighbour's excess
// churn that can surface in a co-tenant's observed cleaner debt: 1 under
// fifo (one pooled backlog), and the admitted fraction of the cleaner
// under isolation — the debt-share bucket admits at most DebtShareRate
// bytes/s into the pool, so co-tenants see at most that fraction of the
// cleaner's capacity consumed by any one aggressor.
func (i Isolation) DebtCouplingFactor(cleanerRate float64) float64 {
	if !i.Enabled() || cleanerRate <= 0 {
		return 1
	}
	rate := i.DebtShareRate
	if rate <= 0 {
		rate = cleanerRate
	}
	if rate >= cleanerRate {
		return 1
	}
	return rate / cleanerRate
}
