package sim

// FlowQueue is the pluggable per-flow scheduler behind Server and Pipe:
// when installed (SetQueue), work that cannot start immediately is pushed
// here keyed by flow id, and the resource pops the next item to serve
// whenever a slot (or the pipe) frees. Cost is in the resource's native
// units — service nanoseconds for a Server, payload bytes for a Pipe —
// so one implementation schedules both. Implementations must be
// deterministic: identical call sequences produce identical pop orders.
//
// The nil FlowQueue is FIFO: resources without a queue keep their
// original arrival-order behaviour on the exact code path (and event
// schedule) they had before flow scheduling existed.
type FlowQueue interface {
	// SetFlow declares or updates a flow's scheduling parameters: a
	// weighted-fair share (weight <= 0 means 1) and a reserved service
	// rate in cost units per second (0 = no reservation). Unknown flows
	// pushed without SetFlow default to weight 1, no reservation.
	SetFlow(flow int, weight, reservedPerSec float64)
	// Push enqueues one work item of the given cost for the flow.
	Push(flow int, cost int64, done func())
	// Pop removes and returns the next item to serve.
	Pop() (cost int64, done func(), ok bool)
	// Len returns the number of queued items across all flows.
	Len() int
}

// flowJob is one queued work item.
type flowJob struct {
	cost int64
	done func()
}

// flowState is one flow's queue and scheduling account inside a DRRQueue
// (and, via embedding, a ReservationQueue).
type flowState struct {
	weight   float64
	reserved float64 // reserved cost units per second (reservation policy)

	q     []flowJob // FIFO ring: live jobs are q[qhead:]
	qhead int

	deficit float64 // DRR deficit counter, in cost units
	charged bool    // quantum already granted for the current round visit
	active  bool    // present in the DRR activation ring

	tokens   float64 // reservation token balance, in cost units
	lastFill Time
}

func (f *flowState) qlen() int { return len(f.q) - f.qhead }

func (f *flowState) push(j flowJob) { f.q = append(f.q, j) }

func (f *flowState) pop() flowJob {
	j := f.q[f.qhead]
	f.q[f.qhead] = flowJob{}
	f.qhead++
	if f.qhead == len(f.q) {
		f.q = f.q[:0]
		f.qhead = 0
	}
	return j
}

// DRRQueue is a deficit-round-robin weighted-fair scheduler: each active
// flow is visited in activation order and granted quantum×weight cost
// units per round, accumulated in a deficit counter it spends on its
// queued items. Backlogged flows therefore share capacity in proportion
// to their weights regardless of item sizes, while an idle flow banks
// nothing (its deficit resets when its queue drains) — the classic
// O(1)-per-decision fair queueing discipline.
type DRRQueue struct {
	quantum float64
	flows   map[int]*flowState
	order   []*flowState // activation ring: live entries are order[ohead:]
	ohead   int
	size    int
}

// NewDRRQueue returns a weighted-fair queue with the given per-round
// quantum in cost units (minimum 1).
func NewDRRQueue(quantum int64) *DRRQueue {
	if quantum < 1 {
		quantum = 1
	}
	return &DRRQueue{quantum: float64(quantum), flows: make(map[int]*flowState)}
}

func (d *DRRQueue) flow(id int) *flowState {
	f := d.flows[id]
	if f == nil {
		f = &flowState{weight: 1}
		d.flows[id] = f
	}
	return f
}

// SetFlow implements FlowQueue.
func (d *DRRQueue) SetFlow(id int, weight, reservedPerSec float64) {
	f := d.flow(id)
	if weight <= 0 {
		weight = 1
	}
	f.weight = weight
	f.reserved = reservedPerSec
}

// Push implements FlowQueue.
func (d *DRRQueue) Push(id int, cost int64, done func()) {
	f := d.flow(id)
	f.push(flowJob{cost: cost, done: done})
	d.size++
	if !f.active {
		f.active = true
		d.order = append(d.order, f)
	}
}

// Len implements FlowQueue.
func (d *DRRQueue) Len() int { return d.size }

func (d *DRRQueue) popOrder() {
	d.order[d.ohead] = nil
	d.ohead++
	if d.ohead == len(d.order) {
		d.order = d.order[:0]
		d.ohead = 0
	}
}

// Pop implements FlowQueue: serve the head-of-ring flow while its deficit
// covers its head item, otherwise rotate it to the tail and grant the
// next flow its round quantum. Each full rotation grants every active
// flow one quantum, so the loop terminates for any finite item cost.
func (d *DRRQueue) Pop() (int64, func(), bool) {
	if d.size == 0 {
		return 0, nil, false
	}
	for {
		f := d.order[d.ohead]
		if f.qlen() == 0 {
			// Stale entry: the flow's items were served out of band (the
			// reservation fast path); drop it from the ring.
			f.active = false
			f.deficit = 0
			f.charged = false
			d.popOrder()
			continue
		}
		if !f.charged {
			f.deficit += d.quantum * f.weight
			f.charged = true
		}
		j := f.q[f.qhead]
		if float64(j.cost) <= f.deficit {
			f.deficit -= float64(j.cost)
			f.pop()
			d.size--
			if f.qlen() == 0 {
				f.active = false
				f.deficit = 0
				f.charged = false
				d.popOrder()
			}
			return j.cost, j.done, true
		}
		// Not enough deficit: keep the balance, move to the back of the
		// round, and earn another quantum on the next visit.
		f.charged = false
		d.popOrder()
		d.order = append(d.order, f)
	}
}

// FlowDeficit returns a flow's current DRR deficit counter in cost
// units (0 for unknown flows). Read-only.
func (d *DRRQueue) FlowDeficit(id int) float64 {
	if f := d.flows[id]; f != nil {
		return f.deficit
	}
	return 0
}

// ReservationQueue layers strict reservations over a DRR pool: a flow
// with a reserved rate earns tokens (cost units per second of virtual
// time) and its queued items are served ahead of everything else while
// its balance is positive — the balance may go negative on an oversized
// item, which self-limits the flow to its reserved rate long-run without
// starving large items. Flows past their reservation, and flows with no
// reservation, fall through to the embedded weighted-fair pool, so the
// scheduler is work-conserving: reserved capacity left unused is spilled
// to whoever is backlogged.
type ReservationQueue struct {
	DRRQueue
	eng      *Engine
	reserved []*flowState // flows with a reservation, in SetFlow order
	burst    float64      // token balance cap, in cost units
}

// NewReservationQueue returns a reservation-plus-spillover queue with the
// given DRR quantum in cost units. The engine supplies virtual time for
// token accrual.
func NewReservationQueue(eng *Engine, quantum int64) *ReservationQueue {
	q := &ReservationQueue{eng: eng}
	if quantum < 1 {
		quantum = 1
	}
	q.quantum = float64(quantum)
	q.flows = make(map[int]*flowState)
	q.burst = 8 * q.quantum
	return q
}

// SetFlow implements FlowQueue; a positive reservedPerSec enrolls the
// flow in the strict-priority reservation scan.
func (r *ReservationQueue) SetFlow(id int, weight, reservedPerSec float64) {
	f := r.flow(id)
	hadReservation := f.reserved > 0
	r.DRRQueue.SetFlow(id, weight, reservedPerSec)
	if f.reserved > 0 && !hadReservation {
		f.tokens = r.burst // start full: immediate priority up to the burst
		f.lastFill = r.eng.Now()
		r.reserved = append(r.reserved, f)
	}
}

// fill accrues reservation tokens up to now, capped at the burst depth.
func (r *ReservationQueue) fill(f *flowState) {
	now := r.eng.Now()
	dt := now.Sub(f.lastFill).Seconds()
	f.lastFill = now
	if dt <= 0 {
		return
	}
	f.tokens += dt * f.reserved
	if f.tokens > r.burst {
		f.tokens = r.burst
	}
}

// Pop implements FlowQueue: reserved flows with a positive token balance
// are served first (in SetFlow order), then the weighted-fair pool.
func (r *ReservationQueue) Pop() (int64, func(), bool) {
	if r.size == 0 {
		return 0, nil, false
	}
	for _, f := range r.reserved {
		r.fill(f)
		if f.qlen() == 0 || f.tokens <= 0 {
			continue
		}
		j := f.pop()
		r.size--
		f.tokens -= float64(j.cost)
		return j.cost, j.done, true
	}
	return r.DRRQueue.Pop()
}

// PeekTokens returns the reservation-token balance fill would produce
// now WITHOUT storing the accrual — Pop's fill() mutates tokens and
// lastFill, and extra out-of-band fills from observability probes would
// change the float rounding of the real schedule. 0 for flows with no
// reservation.
func (r *ReservationQueue) PeekTokens(id int) float64 {
	f := r.flows[id]
	if f == nil || f.reserved <= 0 {
		return 0
	}
	tokens := f.tokens
	if dt := r.eng.Now().Sub(f.lastFill).Seconds(); dt > 0 {
		tokens += dt * f.reserved
		if tokens > r.burst {
			tokens = r.burst
		}
	}
	return tokens
}

var (
	_ FlowQueue = (*DRRQueue)(nil)
	_ FlowQueue = (*ReservationQueue)(nil)
)
