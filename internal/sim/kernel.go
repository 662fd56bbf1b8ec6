// Package sim provides the deterministic discrete-event simulation kernel
// used by every Corona subsystem model.
//
// Simulated time is measured in processor clock cycles at 5 GHz (the Corona
// core frequency, Table 1 of the paper), so one cycle is 0.2 ns. Components
// schedule work at absolute or relative times; the kernel executes it in
// time order, breaking ties by scheduling order so that runs are fully
// deterministic for a given seed.
//
// The scheduler is a hierarchical time wheel (calendar queue) with an
// overflow heap, dispatching from pooled event nodes held in one flat slice
// and linked by index: steady-state scheduling allocates nothing, both
// ScheduleEvent and Step are O(1) for the near-future events that dominate
// cycle-accurate models, and the index links keep the bucket push/pop hot
// path free of pointer write barriers. Every event is a typed Handler plus a
// data word (ScheduleEvent/AtEvent); there is no closure capture. The
// layout, the ordering guarantee, and the measured win over the former
// container/heap kernel are documented in docs/PERFORMANCE.md.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulation timestamp in 5 GHz clock cycles.
type Time uint64

// Cycle durations and conversions.
const (
	// CyclesPerNs is the number of 5 GHz cycles in one nanosecond.
	CyclesPerNs = 5
	// NsPerCycle is the duration of one cycle in nanoseconds.
	NsPerCycle = 0.2
)

// Ns converts a cycle count to nanoseconds.
func (t Time) Ns() float64 { return float64(t) * NsPerCycle }

// Seconds converts a cycle count to seconds.
func (t Time) Seconds() float64 { return float64(t) * 0.2e-9 }

// FromNs converts nanoseconds to cycles, rounding up so that latencies are
// never under-modelled.
func FromNs(ns float64) Time {
	c := ns * CyclesPerNs
	t := Time(c)
	if float64(t) < c {
		t++
	}
	return t
}

// Handler is the typed event target: the kernel's zero-allocation fast path.
// Implementations are small pointer-shaped types (typically a named type over
// the component struct), so storing one in the interface does not allocate;
// the uint64 data word carries the event's packed operands (cluster ids, slot
// indices from Slots, sizes).
type Handler interface {
	// OnEvent runs the event at simulation time now with the data word it was
	// scheduled with.
	OnEvent(now Time, data uint64)
}

// eventNode is one scheduled event. Nodes live in the kernel's flat node
// slice and are linked by index (next threads the wheel's bucket FIFOs and
// the free list), so steady-state scheduling performs no allocation and the
// links carry no write barriers. h is set on every live node; index 0 is the
// shared nil sentinel.
type eventNode struct {
	when Time
	seq  uint64
	next int32

	h    Handler
	data uint64
}

// Wheel geometry: three levels of 256 power-of-two cycle buckets. Level L
// buckets are 256^L cycles wide, so the wheel spans 2^24 cycles (~3.4 ms of
// simulated time) before the overflow heap takes over.
const (
	wheelBits   = 8
	wheelSize   = 1 << wheelBits
	wheelMask   = wheelSize - 1
	wheelLevels = 3

	span0 = Time(1) << wheelBits       // level-0 window: 256 one-cycle buckets
	span1 = Time(1) << (2 * wheelBits) // level-1 span: 256 buckets of 256 cycles
	span2 = Time(1) << (3 * wheelBits) // level-2 span: 256 buckets of 65536 cycles
)

// bucketList is a FIFO of event-node indices: appended at tail on schedule
// and cascade, drained from head on dispatch, so same-(when, seq) order is
// the append order. Index 0 means empty.
type bucketList struct {
	head, tail int32
}

// wheelLevel is one ring of buckets plus an occupancy bitmap used to find the
// next non-empty bucket in a handful of word operations.
type wheelLevel struct {
	buckets [wheelSize]bucketList
	occ     [wheelSize / 64]uint64
}

// Kernel is a discrete-event scheduler. The zero value is not usable; create
// one with NewKernel. A Kernel (including its node arena) is confined to one
// goroutine; independent kernels on separate goroutines share nothing.
type Kernel struct {
	now     Time
	seq     uint64
	stopped bool
	// executed counts events dispatched, for introspection and test limits.
	executed uint64

	// base is the start of the level-0 window, always span0-aligned. The
	// level-1 and level-2 spans containing it are base &^ (span1-1) and
	// base &^ (span2-1).
	base       Time
	levels     [wheelLevels]wheelLevel
	wheelCount int // events resident in the wheel levels
	pending    int // wheelCount plus overflow heap residents
	// cur0 is the level-0 occupancy scan cursor: every occ word below it is
	// empty, so dispatch scans start there instead of at word zero. popNext
	// raises it (events cannot be scheduled before the clock, which dispatch
	// has advanced to the found bucket); it resets to zero whenever base moves.
	cur0 int

	// overflow holds events beyond the wheel's current 2^24-cycle horizon,
	// ordered by (when, seq); it refills the wheel when dispatch rolls past
	// the horizon.
	overflow []int32

	// nodes is the flat event arena; nodes[0] is the nil sentinel. free heads
	// the free list of released nodes, reused at schedule.
	nodes []eventNode
	free  int32
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{nodes: make([]eventNode, 1, 1024)}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of scheduled, not-yet-executed events.
func (k *Kernel) Pending() int { return k.pending }

// Executed returns the number of events dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// ScheduleEvent runs h.OnEvent(now, data) after delay cycles (possibly zero,
// meaning "later this cycle", after already-queued events for the current
// time). Scheduling allocates nothing once the node arena has grown.
func (k *Kernel) ScheduleEvent(delay Time, h Handler, data uint64) {
	k.AtEvent(k.now+delay, h, data)
}

// AtEvent runs h.OnEvent(t, data) at absolute time t. A nil handler or a
// past timestamp panics: silent time travel corrupts causality in queue
// models.
func (k *Kernel) AtEvent(t Time, h Handler, data uint64) {
	if h == nil {
		panic("sim: AtEvent with nil handler")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now %d", t, k.now))
	}
	n := k.newNode()
	k.seq++
	nd := &k.nodes[n]
	nd.when, nd.seq, nd.h, nd.data = t, k.seq, h, data
	k.enqueue(n)
}

func (k *Kernel) newNode() int32 {
	if n := k.free; n != 0 {
		k.free = k.nodes[n].next
		k.nodes[n].next = 0
		return n
	}
	k.nodes = append(k.nodes, eventNode{})
	return int32(len(k.nodes) - 1)
}

func (k *Kernel) releaseNode(n int32) {
	nd := &k.nodes[n]
	nd.h, nd.data = nil, 0
	nd.next = k.free
	k.free = n
}

// enqueue files n into the wheel or the overflow heap.
func (k *Kernel) enqueue(n int32) {
	if k.pending == 0 {
		// Empty kernel: snap the window back to the clock so a run that
		// coasted far ahead (RunUntil past the last event) does not strand
		// near-future work in the overflow heap.
		k.base = k.now &^ (span0 - 1)
		k.cur0 = 0
	}
	k.pending++
	k.place(n)
}

// place files n by range: the lowest wheel level whose current span contains
// n's timestamp, else the overflow heap. Spans are aligned, which is what
// makes bucket order dispatch order: a timestamp enters the wheel only at its
// span's refill/cascade boundary or later, so every append lands behind all
// earlier-scheduled events for the same cycle.
//
// A timestamp below the window (possible when peek cascaded the window past
// the clock and the next schedule lands in the gap) goes to the overflow
// heap, which dispatch checks before the wheel; it cannot tie with a wheel
// event, whose timestamps are all >= base.
func (k *Kernel) place(n int32) {
	when := k.nodes[n].when
	// Near-future events dominate; when-base underflows huge for when < base,
	// so one unsigned compare selects level 0 and subsumes the below-window
	// check.
	if when-k.base < span0 {
		k.pushBucket(0, int(when)&wheelMask, n)
		return
	}
	switch {
	case when < k.base:
		k.heapPush(n)
	case when < (k.base&^(span1-1))+span1:
		k.pushBucket(1, int(when>>wheelBits)&wheelMask, n)
	case when < (k.base&^(span2-1))+span2:
		k.pushBucket(2, int(when>>(2*wheelBits))&wheelMask, n)
	default:
		k.heapPush(n)
	}
}

func (k *Kernel) pushBucket(level, idx int, n int32) {
	k.wheelCount++
	lv := &k.levels[level]
	b := &lv.buckets[idx]
	k.nodes[n].next = 0
	if b.tail == 0 {
		b.head = n
	} else {
		k.nodes[b.tail].next = n
	}
	b.tail = n
	lv.occ[idx>>6] |= 1 << (idx & 63)
}

// firstSet returns the index of the lowest set bit in the occupancy bitmap.
func firstSet(occ *[wheelSize / 64]uint64) (int, bool) {
	for w, bitsWord := range occ {
		if bitsWord != 0 {
			return w<<6 + bits.TrailingZeros64(bitsWord), true
		}
	}
	return 0, false
}

// scan0 returns the lowest occupied level-0 bucket, starting the word scan at
// the cursor (cur0's invariant makes the skipped words provably empty). It
// does not move the cursor: only dispatch may, because only dispatch pins the
// clock to the found bucket.
func (k *Kernel) scan0() (int, bool) {
	occ := &k.levels[0].occ
	for w := k.cur0; w < len(occ); w++ {
		if occ[w] != 0 {
			return w<<6 + bits.TrailingZeros64(occ[w]), true
		}
	}
	return 0, false
}

// popNext removes and returns the earliest (when, seq) event's node index,
// or 0.
func (k *Kernel) popNext() int32 {
	if k.pending == 0 {
		return 0
	}
	for {
		if len(k.overflow) > 0 && k.nodes[k.overflow[0]].when < k.base {
			k.pending--
			return k.heapPop()
		}
		if idx, ok := k.scan0(); ok {
			k.cur0 = idx >> 6
			lv := &k.levels[0]
			b := &lv.buckets[idx]
			n := b.head
			b.head = k.nodes[n].next
			if b.head == 0 {
				b.tail = 0
				lv.occ[idx>>6] &^= 1 << (idx & 63)
			}
			k.wheelCount--
			k.pending--
			k.nodes[n].next = 0
			return n
		}
		k.advance()
	}
}

// peek returns the earliest pending timestamp without dispatching. It may
// advance the wheel window (cascade/refill), which never reorders events.
func (k *Kernel) peek() (Time, bool) {
	if k.pending == 0 {
		return 0, false
	}
	for {
		if len(k.overflow) > 0 && k.nodes[k.overflow[0]].when < k.base {
			return k.nodes[k.overflow[0]].when, true
		}
		if idx, ok := k.scan0(); ok {
			return k.base + Time(idx), true
		}
		k.advance()
	}
}

// advance moves the level-0 window forward to the next occupied region:
// cascading the first non-empty level-1 or level-2 bucket down, or — when
// the wheel is fully drained — jumping to the overflow heap's minimum and
// refilling the wheel's new 2^24-cycle horizon from it. Called only with
// pending > 0 and level 0 empty.
func (k *Kernel) advance() {
	k.cur0 = 0 // base moves; the cascade/refill below may fill any word
	if k.wheelCount == 0 {
		// Rollover: every wheel event has dispatched, so the next span is
		// wherever the heap minimum lives. Draining the heap in (when, seq)
		// order seeds each bucket FIFO sorted; later direct schedules into
		// these spans carry larger sequence numbers and append behind.
		k.base = k.nodes[k.overflow[0]].when &^ (span0 - 1)
		limit := (k.base &^ (span2 - 1)) + span2
		for len(k.overflow) > 0 && k.nodes[k.overflow[0]].when < limit {
			k.place(k.heapPop())
		}
		return
	}
	if idx, ok := firstSet(&k.levels[1].occ); ok {
		k.base = (k.base &^ (span1 - 1)) + Time(idx)<<wheelBits
		k.cascade(1, idx)
		return
	}
	idx, ok := firstSet(&k.levels[2].occ)
	if !ok {
		panic("sim: wheel accounting corrupted (resident events but all levels empty)")
	}
	k.base = (k.base &^ (span2 - 1)) + Time(idx)<<(2*wheelBits)
	k.cascade(2, idx)
}

// cascade redistributes one upper-level bucket into the levels below it,
// preserving list order (and therefore same-cycle FIFO order).
func (k *Kernel) cascade(level, idx int) {
	lv := &k.levels[level]
	b := &lv.buckets[idx]
	n := b.head
	b.head, b.tail = 0, 0
	lv.occ[idx>>6] &^= 1 << (idx & 63)
	for n != 0 {
		next := k.nodes[n].next
		k.wheelCount--
		k.place(n)
		n = next
	}
}

// Overflow heap: a hand-rolled binary min-heap on (when, seq) over node
// indices, avoiding container/heap's interface boxing on the cold path too.

func (k *Kernel) nodeLess(a, b int32) bool {
	na, nb := &k.nodes[a], &k.nodes[b]
	return na.when < nb.when || (na.when == nb.when && na.seq < nb.seq)
}

func (k *Kernel) heapPush(n int32) {
	h := append(k.overflow, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.nodeLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	k.overflow = h
}

func (k *Kernel) heapPop() int32 {
	h := k.overflow
	n := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && k.nodeLess(h[c+1], h[c]) {
			c++
		}
		if !k.nodeLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.overflow = h
	return n
}

// Step executes the single earliest event and returns true, or returns false
// if no events remain.
func (k *Kernel) Step() bool {
	n := k.popNext()
	if n == 0 {
		return false
	}
	nd := &k.nodes[n]
	k.now = nd.when
	k.executed++
	// Release before dispatch so the handler's own scheduling reuses the node.
	h, data := nd.h, nd.data
	k.releaseNode(n)
	h.OnEvent(k.now, data)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled at t execute.
func (k *Kernel) RunUntil(t Time) {
	k.stopped = false
	for !k.stopped {
		when, ok := k.peek()
		if !ok || when > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunLimit executes at most n further events; it returns the number executed.
// Useful as a safety net in tests.
func (k *Kernel) RunLimit(n uint64) uint64 {
	k.stopped = false
	var i uint64
	for i = 0; i < n && !k.stopped; i++ {
		if !k.Step() {
			break
		}
	}
	return i
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (k *Kernel) Stop() { k.stopped = true }

// Reset returns the kernel to its just-constructed state — time zero, no
// events — retaining grown node-arena and heap capacity so a pooled kernel's
// next run schedules without allocating.
func (k *Kernel) Reset() {
	k.now, k.seq, k.executed, k.base = 0, 0, 0, 0
	k.stopped = false
	k.levels = [wheelLevels]wheelLevel{}
	k.cur0 = 0
	k.wheelCount, k.pending = 0, 0
	k.overflow = k.overflow[:0]
	if len(k.nodes) == 0 {
		k.nodes = make([]eventNode, 1, 1024)
		return
	}
	clear(k.nodes[:cap(k.nodes)])
	k.nodes = k.nodes[:1]
	k.free = 0
}
