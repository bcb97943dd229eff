package ftl

// ring is a FIFO queue on a circular buffer: push and pop are O(1), and
// the buffer doubles only when full, so its size is the high-water mark
// of queued items. A slice queue that shifts its tail left on every pop
// pays O(len) per pop instead, which turns quadratic under the sustained
// backlog of a saturated write buffer.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// len returns the number of queued items.
func (r *ring[T]) len() int { return r.n }

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// front returns the oldest item in place; the ring must not be empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// pop removes and returns the oldest item; the ring must not be empty.
// The vacated slot is zeroed so the ring retains no popped references.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

func (r *ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), 8))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
