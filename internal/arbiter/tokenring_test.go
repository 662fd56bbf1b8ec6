package arbiter

import (
	"testing"
	"testing/quick"

	"corona/internal/sim"
)

// fnEvent adapts a closure to the typed sim.Handler path for inline test
// schedules.
type fnEvent func()

func (f fnEvent) OnEvent(sim.Time, uint64) { f() }

func newRing(t *testing.T) (*sim.Kernel, *TokenRing) {
	t.Helper()
	k := sim.NewKernel()
	return k, New(k, 64, 64, 8)
}

func TestRevolutionCycles(t *testing.T) {
	_, tr := newRing(t)
	if tr.RevolutionCycles() != 8 {
		t.Fatalf("revolution = %d cycles, want 8", tr.RevolutionCycles())
	}
}

func TestUncontestedGrantWithinRevolution(t *testing.T) {
	// The paper: "a cluster may wait as long as 8 processor clock cycles for
	// an uncontested token".
	for _, cluster := range []int{0, 1, 7, 8, 32, 63} {
		k, tr := newRing(t)
		var grantedAt sim.Time
		granted := false
		tr.Request(5, cluster, func() { granted = true; grantedAt = k.Now() })
		k.Run()
		if !granted {
			t.Fatalf("cluster %d never granted", cluster)
		}
		if grantedAt > 8 {
			t.Errorf("cluster %d waited %d cycles for uncontested token, want <= 8", cluster, grantedAt)
		}
	}
}

func TestExclusiveGrant(t *testing.T) {
	k, tr := newRing(t)
	holders := 0
	tr.Request(3, 10, func() { holders++ })
	tr.Request(3, 20, func() { holders++ })
	k.Run()
	if holders != 1 {
		t.Fatalf("%d concurrent holders of one channel, want 1 (second must wait for release)", holders)
	}
	if tr.PendingCount(3) != 1 {
		t.Fatalf("pending = %d, want 1", tr.PendingCount(3))
	}
}

func TestReleaseGrantsNext(t *testing.T) {
	k, tr := newRing(t)
	var order []int
	tr.Request(0, 5, func() { order = append(order, 5) })
	tr.Request(0, 6, func() { order = append(order, 6) })
	k.Run()
	tr.Release(0, order[0])
	k.Run()
	if len(order) != 2 || order[0] != 5 || order[1] != 6 {
		t.Fatalf("grant order = %v, want [5 6]", order)
	}
}

func TestRingOrderGrant(t *testing.T) {
	// The free token departs the releaser's position, so the nearest
	// downstream requester wins regardless of request arrival order.
	k, tr := newRing(t)
	got := -1
	tr.Request(0, 10, func() { got = 10 })
	k.Run()
	if got != 10 {
		t.Fatal("setup grant failed")
	}
	// While held, two clusters queue: 40 requested first, but 12 is closer
	// downstream of the releasing cluster 10.
	tr.Request(0, 40, func() { got = 40 })
	tr.Request(0, 12, func() { got = 12 })
	tr.Release(0, 10)
	k.Run()
	if got != 12 {
		t.Fatalf("downstream-nearest requester lost: granted %d, want 12", got)
	}
}

func TestSelfReacquireExclusion(t *testing.T) {
	// A releaser re-requesting immediately must not beat a cluster that the
	// token reaches within the same revolution.
	k, tr := newRing(t)
	got := -1
	tr.Request(0, 10, func() { got = 10 })
	k.Run()
	tr.Request(0, 30, func() { got = 30 }) // 20 positions downstream: ~3 cycles
	tr.Release(0, 10)
	tr.Request(0, 10, func() { got = 10 }) // self re-request, distance 0 but excluded
	k.Run()
	if got != 30 {
		t.Fatalf("self-reacquire exclusion violated: granted %d, want 30", got)
	}
}

func TestSelfReacquireAfterRevolution(t *testing.T) {
	// With no other requesters the releaser gets its token back after one
	// full revolution.
	k, tr := newRing(t)
	tr.Request(0, 10, func() {})
	k.Run()
	releaseTime := k.Now()
	tr.Release(0, 10)
	var regrant sim.Time
	tr.Request(0, 10, func() { regrant = k.Now() })
	k.Run()
	if regrant != releaseTime+tr.RevolutionCycles() {
		t.Fatalf("self re-grant at %d, want %d (release + one revolution)",
			regrant, releaseTime+tr.RevolutionCycles())
	}
}

func TestRoundRobinFairnessUnderContention(t *testing.T) {
	// All 64 clusters hammer channel 0. Over 64 grants every cluster must be
	// served exactly once (round-robin ring order), and grant-to-grant gaps
	// stay small because the token moves directly between neighbours.
	k, tr := newRing(t)
	served := map[int]int{}
	var current int
	var grants int
	var request func(cluster int)
	request = func(cluster int) {
		tr.Request(0, cluster, func() {
			served[cluster]++
			grants++
			current = cluster
			// Hold for 2 cycles (a message), then release and re-request.
			k.ScheduleEvent(2, fnEvent(func() {
				tr.Release(0, current)
			}), 0)
		})
	}
	for cl := 0; cl < 64; cl++ {
		request(cl)
	}
	// Run until 64 grants have occurred.
	for grants < 64 && k.Step() {
	}
	for cl := 0; cl < 64; cl++ {
		if served[cl] != 1 {
			t.Fatalf("cluster %d served %d times in first 64 grants, want exactly 1 (fairness)", cl, served[cl])
		}
	}
}

func TestHighContentionUtilization(t *testing.T) {
	// "When contention is high, token transfer time is low and channel
	// utilization is high": with every cluster always ready and 8-cycle
	// holds, transfer overhead should be ~1 cycle per hand-off.
	k, tr := newRing(t)
	const holds = 200
	const holdCycles = 8
	var grants int
	var rerequest func(cluster int)
	rerequest = func(cluster int) {
		tr.Request(0, cluster, func() {
			grants++
			k.ScheduleEvent(holdCycles, fnEvent(func() {
				tr.Release(0, cluster)
				if grants < holds {
					rerequest(cluster)
				}
			}), 0)
		})
	}
	for cl := 0; cl < 64; cl++ {
		rerequest(cl)
	}
	for grants < holds && k.Step() {
	}
	elapsed := float64(k.Now())
	busy := float64(grants * holdCycles)
	util := busy / elapsed
	if util < 0.8 {
		t.Fatalf("channel utilization %.2f under full contention, want >= 0.8", util)
	}
}

func TestIndependentChannels(t *testing.T) {
	k, tr := newRing(t)
	grants := 0
	for ch := 0; ch < 64; ch++ {
		tr.Request(ch, (ch+1)%64, func() { grants++ })
	}
	k.Run()
	if grants != 64 {
		t.Fatalf("grants = %d, want 64 (channels are independent)", grants)
	}
}

func TestRequestPanicsOnDuplicate(t *testing.T) {
	k, tr := newRing(t)
	tr.Request(0, 1, func() {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate request did not panic")
		}
	}()
	tr.Request(0, 1, func() {})
	_ = k
}

func TestReleasePanicsOnNonHolder(t *testing.T) {
	k, tr := newRing(t)
	tr.Request(0, 1, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("release by non-holder did not panic")
		}
	}()
	tr.Release(0, 2)
}

// Property: for any interleaving of requesters and hold times, every request
// is eventually granted exactly once and the channel never has two holders.
func TestTokenRingSafetyLiveness(t *testing.T) {
	f := func(seed uint64, nreqRaw uint8) bool {
		rng := sim.NewRand(seed)
		nreq := int(nreqRaw%40) + 1
		k := sim.NewKernel()
		tr := New(k, 64, 64, 8)
		grantCount := make(map[int]int)
		holding := false
		ok := true
		clusters := make([]int, 64)
		rng.Perm(clusters)
		for i := 0; i < nreq; i++ {
			cl := clusters[i%64]
			if _, dup := grantCount[cl]; dup {
				continue
			}
			grantCount[cl] = 0
			hold := sim.Time(rng.Intn(10) + 1)
			delay := sim.Time(rng.Intn(50))
			k.ScheduleEvent(delay, fnEvent(func() {
				tr.Request(7, cl, func() {
					if holding {
						ok = false
					}
					holding = true
					grantCount[cl]++
					k.ScheduleEvent(hold, fnEvent(func() {
						holding = false
						tr.Release(7, cl)
					}), 0)
				})
			}), 0)
		}
		if k.RunLimit(1_000_000) >= 1_000_000 {
			return false // livelock
		}
		for cl, n := range grantCount {
			if n != 1 {
				t.Logf("cluster %d granted %d times", cl, n)
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
