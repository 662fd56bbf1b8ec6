package sim

// Fifo is the capacity-reusing queue behind every hot-path FIFO in the
// simulator (router port queues, injection queues, credit wait lists,
// controller space waiters). Pops advance a head index instead of
// reslicing away the backing array — the naive q = q[1:] idiom strands
// capacity and reallocates on every refill cycle — so a steady-state queue
// stops allocating once grown to its peak depth. A drained queue resets to
// the buffer's start, and a long-lived non-empty queue compacts once the
// dead prefix outweighs the live window, keeping memory O(live elements)
// even for a queue that never empties (a saturated memory controller's
// waiter list runs for a whole cell without draining). Compaction copies
// the live window at most once per len(live)+compactMin pops, so Pop stays
// amortized O(1). A Fifo belongs to one component on one kernel goroutine;
// it is not synchronized.
type Fifo[T any] struct {
	buf  []T
	head int
}

// compactMin is the minimum dead prefix before Pop considers compacting;
// small queues just run to empty and reset for free.
const compactMin = 32

// Push appends v to the tail.
func (q *Fifo[T]) Push(v T) { q.buf = append(q.buf, v) }

// Len returns the number of queued elements.
func (q *Fifo[T]) Len() int { return len(q.buf) - q.head }

// Empty reports whether the queue holds no elements.
func (q *Fifo[T]) Empty() bool { return q.head == len(q.buf) }

// Front returns the head element without removing it.
func (q *Fifo[T]) Front() T { return q.buf[q.head] }

// Reset drops every element and clears the whole backing buffer (so no
// references linger in capacity), keeping the grown capacity for reuse.
func (q *Fifo[T]) Reset() {
	clear(q.buf[:cap(q.buf)])
	q.buf = q.buf[:0]
	q.head = 0
}

// Pop removes and returns the head element. Popped (and compacted-over)
// slots are zeroed so the buffer never retains references.
func (q *Fifo[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head >= compactMin && q.head > len(q.buf)-q.head:
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}
