package sim

// FIFO is a first-in, first-out queue on a ring buffer. Push and Pop are
// O(1) and reuse the backing array, where a slice popped with q = q[1:]
// strands its consumed front and reallocates on later appends. The zero
// value is an empty queue.
type FIFO[T any] struct {
	buf  []T // empty or a power of two long
	head int // index of the oldest element
	n    int
}

// fifoMinCap is the ring size of a queue's first allocation.
const fifoMinCap = 4

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element. It panics on an empty
// queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front returns a pointer to the oldest element, for in-place updates.
// The pointer is valid until the next Push, Pop or Clear. It panics on
// an empty queue.
func (q *FIFO[T]) Front() *T {
	if q.n == 0 {
		panic("sim: Front on empty FIFO")
	}
	return &q.buf[q.head]
}

// Clear empties the queue, keeping its backing array.
func (q *FIFO[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// grow doubles the ring, unwrapping the elements to the front.
func (q *FIFO[T]) grow() {
	buf := make([]T, max(2*len(q.buf), fifoMinCap))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
