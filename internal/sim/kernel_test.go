package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

// fnEvent adapts a closure to the typed Handler path so tests can write
// ad-hoc schedules inline.
type fnEvent func()

func (f fnEvent) OnEvent(Time, uint64) { f() }

// schedule and at run fn after delay cycles / at absolute time t.
func schedule(k *Kernel, delay Time, fn func()) { k.ScheduleEvent(delay, fnEvent(fn), 0) }
func at(k *Kernel, t Time, fn func())           { k.AtEvent(t, fnEvent(fn), 0) }

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	schedule(k, 10, func() { got = append(got, 1) })
	schedule(k, 5, func() { got = append(got, 0) })
	schedule(k, 10, func() { got = append(got, 2) }) // same time: FIFO by seq
	schedule(k, 20, func() { got = append(got, 3) })
	k.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Errorf("Now() = %d, want 20", k.Now())
	}
}

func TestKernelZeroDelay(t *testing.T) {
	k := NewKernel()
	order := []string{}
	schedule(k, 0, func() {
		order = append(order, "a")
		schedule(k, 0, func() { order = append(order, "c") })
	})
	schedule(k, 0, func() { order = append(order, "b") })
	k.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits int
	var rec func(depth int)
	rec = func(depth int) {
		hits++
		if depth < 10 {
			schedule(k, 1, func() { rec(depth + 1) })
		}
	}
	schedule(k, 0, func() { rec(0) })
	k.Run()
	if hits != 11 {
		t.Fatalf("hits = %d, want 11", hits)
	}
	if k.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", k.Now())
	}
}

func TestKernelPastPanics(t *testing.T) {
	k := NewKernel()
	schedule(k, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		at(k, 5, func() {})
	})
	k.Run()
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var count int
	for i := Time(1); i <= 100; i++ {
		at(k, i, func() { count++ })
	}
	k.RunUntil(50)
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
	if k.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", k.Now())
	}
	k.RunUntil(200)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if k.Now() != 200 {
		t.Fatalf("Now() = %d, want 200 (clock advances past last event)", k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	var count int
	for i := Time(1); i <= 10; i++ {
		at(k, i, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
	k.Run() // resumes
	if count != 10 {
		t.Fatalf("count = %d, want 10 after resume", count)
	}
}

func TestKernelRunLimit(t *testing.T) {
	k := NewKernel()
	for i := Time(0); i < 10; i++ {
		at(k, i, func() {})
	}
	if n := k.RunLimit(4); n != 4 {
		t.Fatalf("RunLimit ran %d, want 4", n)
	}
	if n := k.RunLimit(100); n != 6 {
		t.Fatalf("RunLimit ran %d, want 6", n)
	}
}

// Property: for any set of (time, id) pairs, the kernel dispatches them
// sorted by time with stable order for equal times.
func TestKernelOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		type rec struct {
			when Time
			seq  int
		}
		var got []rec
		for i, d := range delays {
			d := Time(d)
			i := i
			at(k, d, func() { got = append(got, rec{d, i}) })
		}
		k.Run()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].when > got[i].when {
				return false
			}
			if got[i-1].when == got[i].when && got[i-1].seq > got[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if FromNs(20) != 100 {
		t.Errorf("FromNs(20) = %d, want 100", FromNs(20))
	}
	if FromNs(0.2) != 1 {
		t.Errorf("FromNs(0.2) = %d, want 1", FromNs(0.2))
	}
	if FromNs(0.3) != 2 { // rounds up
		t.Errorf("FromNs(0.3) = %d, want 2", FromNs(0.3))
	}
	if got := Time(100).Ns(); got != 20 {
		t.Errorf("Time(100).Ns() = %v, want 20", got)
	}
	if got := Time(5e9).Seconds(); got != 1 {
		t.Errorf("Time(5e9).Seconds() = %v, want 1", got)
	}
}

// chainRecorder is a typed handler that records its dispatches and keeps a
// randomized self-perpetuating schedule going, exercising same-cycle ties,
// cascades, and overflow-heap territory.
type chainRecorder struct {
	k     *Kernel
	rng   *Rand
	trace []chainEvent
	left  int
}

type chainEvent struct {
	when Time
	data uint64
}

func (r *chainRecorder) OnEvent(now Time, data uint64) {
	r.trace = append(r.trace, chainEvent{now, data})
	if r.left <= 0 {
		return
	}
	r.left--
	// A burst of follow-on events across all wheel spans, with deliberate
	// same-cycle ties.
	n := 1 + r.rng.Intn(3)
	for i := 0; i < n; i++ {
		var delay Time
		switch r.rng.Intn(5) {
		case 0:
			delay = 0
		case 1:
			delay = Time(r.rng.Intn(256))
		case 2:
			delay = Time(r.rng.Intn(1 << 16))
		case 3:
			delay = Time(r.rng.Intn(1 << 24))
		default:
			delay = Time(r.rng.Intn(1 << 26)) // past the wheel horizon
		}
		r.k.ScheduleEvent(delay, r, r.rng.Uint64()%1000)
	}
}

func seedRecorder(k *Kernel, seed uint64, left int) *chainRecorder {
	r := &chainRecorder{k: k, rng: NewRand(seed), left: left}
	for i := 0; i < 8; i++ {
		k.ScheduleEvent(Time(r.rng.Intn(1<<20)), r, uint64(i))
	}
	return r
}

// TestKernelResetMatchesFresh pins that a Reset kernel behaves exactly like a
// new one over a randomized schedule.
func TestKernelResetMatchesFresh(t *testing.T) {
	dirty := NewKernel()
	seedRecorder(dirty, 11, 200)
	for i := 0; i < 500; i++ {
		dirty.Step()
	}
	dirty.Reset()
	if dirty.Now() != 0 || dirty.Pending() != 0 || dirty.Executed() != 0 {
		t.Fatalf("Reset left state: now=%d pending=%d executed=%d", dirty.Now(), dirty.Pending(), dirty.Executed())
	}

	fresh := NewKernel()
	rd := seedRecorder(dirty, 13, 300)
	rf := seedRecorder(fresh, 13, 300)
	dirty.Run()
	fresh.Run()
	if !reflect.DeepEqual(rd.trace, rf.trace) {
		t.Fatal("reset kernel diverges from fresh kernel")
	}
}
