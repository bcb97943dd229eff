package cluster

// Observability over the shared cluster: read-only debt peeks (the real
// Debt/DebtObservedBy settle — i.e. mutate — the float drain state, so
// probes sampling mid-run must not call them) and state-probe
// installation. Request tracing lives in WriteForTraced/ReadForTraced.

import (
	"fmt"

	"essdsim/internal/obs"
	"essdsim/internal/sim"
)

// peekSettled computes the pooled debt settleDebt would report now, plus
// the spare cleaner capacity beyond it, without mutating the drain
// state (debtUpdate, cleaned, private).
func (c *Cluster) peekSettled() (debt int64, spare float64) {
	debt = c.debt
	dt := c.eng.Now().Sub(c.debtUpdate).Seconds()
	if dt <= 0 || c.cfg.CleanerRate <= 0 {
		return debt, 0
	}
	if debt > 0 {
		if whole := int64(c.cleaned + dt*c.cfg.CleanerRate); whole > 0 {
			debt -= whole
			if debt < 0 {
				spare = float64(-debt)
				debt = 0
			}
		}
	} else {
		spare = dt * c.cfg.CleanerRate
	}
	return debt, spare
}

// PeekDebt is the read-only form of Debt, for observability probes.
func (c *Cluster) PeekDebt() int64 {
	d, _ := c.peekSettled()
	return d
}

// PeekDebtFor is the read-only form of DebtObservedBy, for
// observability probes: the shared pool plus the flow's private
// (unadmitted) debt under isolation.
func (c *Cluster) PeekDebtFor(flow int) int64 {
	debt, spare := c.peekSettled()
	if !c.isoOn || flow < 0 || flow >= len(c.fiso) {
		return debt
	}
	private := c.fiso[flow].private
	if spare > 0 && private > 0 {
		var total float64
		for i := range c.fiso {
			total += c.fiso[i].private
		}
		if total <= spare {
			private = 0
		} else {
			private *= 1 - spare/total
		}
	}
	return debt + int64(private)
}

// policyLabel names the scheduling policy spans and probes report.
func (c *Cluster) policyLabel() string { return c.iso.Policy.String() }

// InstallProbes registers the cluster's state gauges: pooled and
// per-flow cleaner debt, each node's server queue depths/busy slots and
// pipe backlogs, and — under isolation — node 0's DRR deficits and
// reservation tokens per flow (one node is representative; every node
// runs the same scheduler). Call after the flows are registered.
func (c *Cluster) InstallProbes(p *obs.Prober) {
	p.Add("cluster/debt_bytes", func() float64 { return float64(c.PeekDebt()) })
	for i := range c.flows {
		i := i
		p.Add(fmt.Sprintf("cluster/debt/%s", c.flows[i].Name), func() float64 {
			return float64(c.PeekDebtFor(i))
		})
	}
	for i, n := range c.nodes {
		n := n
		pre := fmt.Sprintf("cluster/n%d", i)
		p.Add(pre+"/write/qlen", func() float64 { return float64(n.write.QueueLen()) })
		p.Add(pre+"/write/busy", func() float64 { return float64(n.write.Busy()) })
		p.Add(pre+"/read/qlen", func() float64 { return float64(n.read.QueueLen()) })
		p.Add(pre+"/stream/backlog_s", func() float64 { return n.stream.Backlog().Seconds() })
		p.Add(pre+"/repl/backlog_s", func() float64 { return n.repl.Backlog().Seconds() })
		p.Add(pre+"/readbw/backlog_s", func() float64 { return n.readBW.Backlog().Seconds() })
	}
	if !c.isoOn || len(c.nodes) == 0 {
		return
	}
	switch q := c.nodes[0].write.Scheduler().(type) {
	case *sim.ReservationQueue:
		for i := range c.flows {
			i := i
			name := c.flows[i].Name
			p.Add(fmt.Sprintf("cluster/n0/write/deficit/%s", name), func() float64 { return q.FlowDeficit(i) })
			p.Add(fmt.Sprintf("cluster/n0/write/tokens/%s", name), func() float64 { return q.PeekTokens(i) })
		}
	case *sim.DRRQueue:
		for i := range c.flows {
			i := i
			p.Add(fmt.Sprintf("cluster/n0/write/deficit/%s", c.flows[i].Name), func() float64 { return q.FlowDeficit(i) })
		}
	}
}
