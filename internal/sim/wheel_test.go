package sim

import (
	"container/heap"
	"sync"
	"testing"
)

// refEvent / refKernel reimplement the seed's container/heap scheduler as the
// ordering oracle for the time-wheel kernel: dispatch strictly by (when, seq).
type refEvent struct {
	when Time
	seq  uint64
	id   uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type refKernel struct {
	pq  refHeap
	now Time
	seq uint64
}

func (r *refKernel) schedule(d Time, id uint64) {
	r.seq++
	heap.Push(&r.pq, refEvent{when: r.now + d, seq: r.seq, id: id})
}

func (r *refKernel) step() (refEvent, bool) {
	if len(r.pq) == 0 {
		return refEvent{}, false
	}
	e := heap.Pop(&r.pq).(refEvent)
	r.now = e.when
	return e, true
}

func (r *refKernel) peek() (Time, bool) {
	if len(r.pq) == 0 {
		return 0, false
	}
	return r.pq[0].when, true
}

// delayMix spans every kernel tier: same-cycle ties, level-0/1/2 wheel
// buckets, and overflow-heap territory beyond the 2^24-cycle horizon.
var delayMix = []Time{
	0, 0, 1, 2, 3, 5, 17, 100,
	span0 - 1, span0, span0 + 1, 3 * span0,
	span1 - 1, span1, span1 + 1, 7 * span1,
	span2 - 1, span2, span2 + 1, 3 * span2,
}

// childDelays decides, purely from an event's id, which child events it
// schedules while running — so the wheel driver and the reference oracle make
// identical nested-scheduling decisions as long as dispatch order agrees.
func childDelays(id, budget uint64) []Time {
	if id%4 != 0 || budget == 0 {
		return nil
	}
	n := len(delayMix)
	return []Time{delayMix[(id*13)%uint64(n)], delayMix[(id*29)%uint64(n)], 0}
}

// diffDriver runs the wheel side of the differential test: every dispatched
// event records (when, id) and schedules its children, alternating between
// the driver itself and a closure adapter, so handlers of different types
// share the ordering machinery.
type diffDriver struct {
	k      *Kernel
	got    []refEvent
	nextID uint64
	budget uint64 // remaining child spawns, to terminate the cascade
}

func (d *diffDriver) OnEvent(now Time, id uint64) {
	d.got = append(d.got, refEvent{when: now, id: id})
	for _, delay := range childDelays(id, d.budget) {
		d.budget--
		cid := d.nextID
		d.nextID++
		if cid%3 == 0 {
			k := d.k
			schedule(k, delay, func() { d.OnEvent(k.Now(), cid) })
		} else {
			d.k.ScheduleEvent(delay, d, cid)
		}
	}
}

// refDriver mirrors diffDriver's decisions on the oracle.
type refDriver struct {
	r      *refKernel
	got    []refEvent
	nextID uint64
	budget uint64
}

func (d *refDriver) dispatch(e refEvent) {
	d.got = append(d.got, refEvent{when: e.when, id: e.id})
	for _, delay := range childDelays(e.id, d.budget) {
		d.budget--
		cid := d.nextID
		d.nextID++
		d.r.schedule(delay, cid)
	}
}

func compareDispatch(t *testing.T, trial int, got, want []refEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: wheel dispatched %d events, reference %d", trial, len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || got[i].when != want[i].when {
			t.Fatalf("trial %d: dispatch diverges at %d: wheel (t=%d id=%d), reference (t=%d id=%d)",
				trial, i, got[i].when, got[i].id, want[i].when, want[i].id)
		}
	}
}

// TestWheelMatchesHeapKernel drives the wheel kernel and the reference heap
// kernel over identical randomized schedules — same-cycle ties, overflow
// bucket refills, events scheduled from inside running events — and asserts
// identical dispatch order.
func TestWheelMatchesHeapKernel(t *testing.T) {
	rng := NewRand(20080613)
	for trial := 0; trial < 40; trial++ {
		k := NewKernel()
		ref := &refKernel{}
		wd := &diffDriver{k: k, budget: 300}
		rd := &refDriver{r: ref, budget: 300}

		seed := 100 + rng.Intn(150)
		for i := 0; i < seed; i++ {
			d := delayMix[rng.Intn(len(delayMix))]
			k.ScheduleEvent(d, wd, wd.nextID)
			ref.schedule(d, rd.nextID)
			wd.nextID++
			rd.nextID++
		}

		k.Run()
		for {
			e, ok := ref.step()
			if !ok {
				break
			}
			rd.dispatch(e)
		}
		compareDispatch(t, trial, wd.got, rd.got)
		if k.Now() != ref.now {
			t.Fatalf("trial %d: final clock %d, reference %d", trial, k.Now(), ref.now)
		}
		if k.Pending() != 0 {
			t.Fatalf("trial %d: %d events still pending after Run", trial, k.Pending())
		}
	}
}

// TestWheelRunUntilMatchesHeap checks the RunUntil boundary against the
// oracle: several successive horizons, each dispatching exactly the events
// with timestamps <= t and leaving the clock at t.
func TestWheelRunUntilMatchesHeap(t *testing.T) {
	rng := NewRand(7)
	for trial := 0; trial < 20; trial++ {
		k := NewKernel()
		ref := &refKernel{}
		wd := &diffDriver{k: k, budget: 100}
		rd := &refDriver{r: ref, budget: 100}
		for i := 0; i < 120; i++ {
			d := delayMix[rng.Intn(len(delayMix))]
			k.ScheduleEvent(d, wd, wd.nextID)
			ref.schedule(d, rd.nextID)
			wd.nextID++
			rd.nextID++
		}
		// Horizons hit bucket edges, the far heap, and a gap past all events.
		for _, horizon := range []Time{0, 3, span0, span0 + 1, span1 - 1, 2 * span1, span2 + span1, 5 * span2} {
			k.RunUntil(horizon)
			for {
				w, ok := ref.peek()
				if !ok || w > horizon {
					break
				}
				e, _ := ref.step()
				rd.dispatch(e)
			}
			if ref.now < horizon {
				ref.now = horizon
			}
			compareDispatch(t, trial, wd.got, rd.got)
			if k.Now() != ref.now {
				t.Fatalf("trial %d: clock %d after RunUntil(%d), reference %d", trial, k.Now(), horizon, ref.now)
			}
		}
		// Scheduling into the gap between the clock and an advanced wheel
		// window must still dispatch in time order (below-window heap path).
		k.ScheduleEvent(1, wd, wd.nextID)
		ref.schedule(1, rd.nextID)
		wd.nextID++
		rd.nextID++
		k.Run()
		for {
			e, ok := ref.step()
			if !ok {
				break
			}
			rd.dispatch(e)
		}
		compareDispatch(t, trial, wd.got, rd.got)
	}
}

// stopAfter stops the kernel from inside an event, mid-cycle: events for the
// same cycle must stay queued and resume in FIFO order.
type stopAfter struct {
	k     *Kernel
	got   []uint64
	limit int
}

func (s *stopAfter) OnEvent(_ Time, data uint64) {
	s.got = append(s.got, data)
	if len(s.got) == s.limit {
		s.k.Stop()
	}
}

func TestWheelStopMidCycle(t *testing.T) {
	k := NewKernel()
	s := &stopAfter{k: k, limit: 3}
	// Five events on one cycle, two more a cycle later.
	for i := 0; i < 5; i++ {
		k.ScheduleEvent(10, s, uint64(i))
	}
	k.ScheduleEvent(11, s, 5)
	k.ScheduleEvent(11, s, 6)
	k.Run()
	if len(s.got) != 3 || k.Now() != 10 {
		t.Fatalf("stopped after %d events at t=%d, want 3 at t=10", len(s.got), k.Now())
	}
	if k.Pending() != 4 {
		t.Fatalf("pending = %d after mid-cycle stop, want 4", k.Pending())
	}
	k.Run()
	want := []uint64{0, 1, 2, 3, 4, 5, 6}
	if len(s.got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(s.got), len(want))
	}
	for i, id := range want {
		if s.got[i] != id {
			t.Fatalf("dispatch order %v, want %v (same-cycle FIFO across Stop)", s.got, want)
		}
	}
}

// reuseHandler exercises the node free list as components do: every dispatch
// immediately schedules again, so the just-released node is reused while the
// event is still running.
type reuseHandler struct {
	k    *Kernel
	left int
}

func (h *reuseHandler) OnEvent(_ Time, data uint64) {
	if h.left == 0 {
		return
	}
	h.left--
	// Mixed fan-out keeps several pooled nodes in flight at once.
	h.k.ScheduleEvent(1+Time(data%7), h, data*2654435761+1)
	if data%3 == 0 {
		h.k.ScheduleEvent(span1+Time(data%97), h, data+1)
	}
}

// TestWheelFreeListRace runs independent kernels concurrently under the race
// detector: the node pool is per-kernel state, so hammering many kernels at
// once must show no sharing. (go test -race is the point of this test; it
// still verifies pool-reuse bookkeeping without the detector.)
func TestWheelFreeListRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := NewKernel()
			h := &reuseHandler{k: k, left: 20000}
			for i := 0; i < 32; i++ {
				k.ScheduleEvent(Time(i%5), h, uint64(g*1000+i))
			}
			k.Run()
			if k.Pending() != 0 {
				t.Errorf("goroutine %d: %d events pending after Run", g, k.Pending())
			}
			if k.Executed() == 0 {
				t.Errorf("goroutine %d: no events executed", g)
			}
		}(g)
	}
	wg.Wait()
}
