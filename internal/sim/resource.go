package sim

// Server models a service station with a fixed number of parallel service
// slots and an unbounded FIFO queue. Each visit occupies one slot for its
// service time; excess visitors queue in arrival order.
//
// Server is the building block for things like storage-node request
// processors and per-die command queues.
type Server struct {
	eng  *Engine
	name string
	cap  int

	busy     int
	queue    []serverJob // FIFO ring: live jobs are queue[qhead:]
	qhead    int
	finishFn func(any) // bound finish method, allocated once per server

	sched FlowQueue // nil = FIFO on the original code path
}

type serverJob struct {
	service Duration
	done    func()
}

// NewServer returns a server with the given number of parallel slots
// (minimum 1).
func NewServer(eng *Engine, name string, slots int) *Server {
	if slots < 1 {
		slots = 1
	}
	s := &Server{eng: eng, name: name, cap: slots}
	s.finishFn = s.finish
	return s
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// SetQueue installs a flow scheduler: visits that cannot start
// immediately queue there (keyed by flow id via VisitFlow) instead of
// the FIFO ring, and freed slots serve whatever the scheduler pops next.
// Install before the first visit; a nil scheduler is the default FIFO.
func (s *Server) SetQueue(q FlowQueue) { s.sched = q }

// SetFlow forwards a flow's scheduling parameters to the installed
// scheduler (no-op without one).
func (s *Server) SetFlow(flow int, weight, reservedPerSec float64) {
	if s.sched != nil {
		s.sched.SetFlow(flow, weight, reservedPerSec)
	}
}

// Scheduler returns the installed flow scheduler (nil under FIFO) so
// observability probes can snapshot per-flow deficits and tokens.
func (s *Server) Scheduler() FlowQueue { return s.sched }

// QueueLen returns the number of waiting (not yet in service) jobs.
func (s *Server) QueueLen() int {
	if s.sched != nil {
		return s.sched.Len()
	}
	return len(s.queue) - s.qhead
}

// Busy returns the number of occupied service slots.
func (s *Server) Busy() int { return s.busy }

// Visit requests service of the given duration. done is invoked when service
// completes (after any queueing delay). done may be nil.
func (s *Server) Visit(service Duration, done func()) {
	if s.sched != nil {
		s.VisitFlow(-1, service, done)
		return
	}
	if service < 0 {
		service = 0
	}
	if s.busy < s.cap {
		s.start(service, done)
		return
	}
	s.queue = append(s.queue, serverJob{service: service, done: done})
}

// VisitFlow is Visit with the queueing attributed to a scheduler flow.
// Without an installed scheduler the flow id is ignored and the visit
// takes the exact FIFO path Visit always has.
func (s *Server) VisitFlow(flow int, service Duration, done func()) {
	if s.sched == nil {
		s.Visit(service, done)
		return
	}
	if service < 0 {
		service = 0
	}
	if s.busy < s.cap {
		s.start(service, done)
		return
	}
	s.sched.Push(flow, int64(service), done)
}

func (s *Server) start(service Duration, done func()) {
	s.busy++
	// The completion event reuses the server's bound finish method with the
	// visit's done callback as the event argument — no closure per visit.
	s.eng.ScheduleCall(service, s.finishFn, done)
}

func (s *Server) finish(arg any) {
	s.busy--
	if done := arg.(func()); done != nil {
		done()
	}
	s.dispatch()
}

func (s *Server) dispatch() {
	if s.sched != nil {
		for s.busy < s.cap {
			cost, done, ok := s.sched.Pop()
			if !ok {
				return
			}
			s.start(Duration(cost), done)
		}
		return
	}
	for s.busy < s.cap && s.qhead < len(s.queue) {
		j := s.queue[s.qhead]
		// Advance a head index instead of shifting: popping is O(1), and
		// the drained prefix is reclaimed whenever the ring empties (the
		// steady state of a stable queue), bounding memory to the high-water
		// mark of outstanding jobs.
		s.queue[s.qhead] = serverJob{}
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue = s.queue[:0]
			s.qhead = 0
		}
		s.start(j.service, j.done)
	}
}

// Pipe models a bandwidth-limited, order-preserving transfer resource such
// as a network link direction or a bus. Transfers are serialized: a transfer
// of n bytes occupies the pipe for n/bandwidth seconds after all previously
// submitted transfers have drained.
type Pipe struct {
	eng  *Engine
	name string
	bps  float64 // bytes per second

	nextFree Time
	moved    int64

	// Flow-scheduled mode (SetQueue): instead of committing every
	// transfer's finish time at submission (the eager nextFree arithmetic
	// above, which fixes FIFO order at enqueue), transfers past the one
	// in flight wait in the scheduler and are picked by policy when the
	// pipe frees.
	sched       FlowQueue
	inflight    bool
	curFinish   Time
	queuedBytes int64
	finishFn    func(any) // bound finish method, allocated with the queue
}

// NewPipe returns a pipe with the given bandwidth in bytes per second.
func NewPipe(eng *Engine, name string, bytesPerSec float64) *Pipe {
	if bytesPerSec <= 0 {
		bytesPerSec = 1
	}
	return &Pipe{eng: eng, name: name, bps: bytesPerSec}
}

// Name returns the pipe's diagnostic name.
func (p *Pipe) Name() string { return p.name }

// Moved returns the total bytes transferred.
func (p *Pipe) Moved() int64 { return p.moved }

// TransferTime returns the pure service time for n bytes, with no queueing.
func (p *Pipe) TransferTime(n int64) Duration {
	if n <= 0 {
		return 0
	}
	return Duration(float64(n) / p.bps * float64(Second))
}

// SetQueue installs a flow scheduler: transfers submitted while the pipe
// is busy queue there (keyed by flow id via TransferFlow) and are served
// in the order the policy picks, one at a time, when the pipe frees.
// Install before the first transfer; a nil scheduler keeps the original
// FIFO behaviour, in which every transfer's completion is committed at
// submission time.
func (p *Pipe) SetQueue(q FlowQueue) {
	p.sched = q
	if q != nil && p.finishFn == nil {
		p.finishFn = p.finishTransfer
	}
}

// SetFlow forwards a flow's scheduling parameters to the installed
// scheduler (no-op without one).
func (p *Pipe) SetFlow(flow int, weight, reservedPerSec float64) {
	if p.sched != nil {
		p.sched.SetFlow(flow, weight, reservedPerSec)
	}
}

// Transfer moves n bytes through the pipe and invokes done when the last
// byte has drained. done may be nil.
func (p *Pipe) Transfer(n int64, done func()) {
	if p.sched != nil {
		p.TransferFlow(-1, n, done)
		return
	}
	now := p.eng.Now()
	start := p.nextFree
	if start < now {
		start = now
	}
	finish := start.Add(p.TransferTime(n))
	p.nextFree = finish
	p.moved += n
	// done is scheduled directly (nil is a bare clock advance): no wrapper
	// closure per transfer on the hot path.
	p.eng.At(finish, done)
}

// TransferFlow is Transfer with the queueing attributed to a scheduler
// flow. Without an installed scheduler the flow id is ignored and the
// transfer takes the exact FIFO path Transfer always has.
func (p *Pipe) TransferFlow(flow int, n int64, done func()) {
	if p.sched == nil {
		p.Transfer(n, done)
		return
	}
	p.moved += n
	if !p.inflight {
		p.startTransfer(n, done)
		return
	}
	p.queuedBytes += n
	p.sched.Push(flow, n, done)
}

func (p *Pipe) startTransfer(n int64, done func()) {
	p.inflight = true
	p.curFinish = p.eng.Now().Add(p.TransferTime(n))
	// The completion event reuses the pipe's bound finish method with the
	// transfer's done callback as the event argument — no closure per
	// transfer.
	p.eng.ScheduleCall(p.TransferTime(n), p.finishFn, done)
}

func (p *Pipe) finishTransfer(arg any) {
	// Run the completion while the pipe still counts as busy, so transfers
	// it submits queue behind the already-waiting items instead of seizing
	// the pipe out of order.
	if done := arg.(func()); done != nil {
		done()
	}
	if cost, next, ok := p.sched.Pop(); ok {
		p.queuedBytes -= cost
		p.curFinish = p.eng.Now().Add(p.TransferTime(cost))
		p.eng.ScheduleCall(p.TransferTime(cost), p.finishFn, next)
		return
	}
	p.inflight = false
}

// Backlog returns how far in the future the pipe is already committed,
// i.e. the queueing delay a zero-length transfer would see now.
func (p *Pipe) Backlog() Duration {
	now := p.eng.Now()
	if p.sched != nil {
		var d Duration
		if p.inflight && p.curFinish > now {
			d = p.curFinish.Sub(now)
		}
		return d + Duration(float64(p.queuedBytes)/p.bps*float64(Second))
	}
	if p.nextFree <= now {
		return 0
	}
	return p.nextFree.Sub(now)
}
