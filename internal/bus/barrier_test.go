package bus

import (
	"testing"

	"corona/internal/noc"
	"corona/internal/sim"
)

// fnEvent adapts a closure to the typed sim.Handler path for inline test
// schedules.
type fnEvent func()

func (f fnEvent) OnEvent(sim.Time, uint64) { f() }

func TestBarrierReleasesAllAfterLastArrival(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	br := NewBarrier(b, 64)

	released := make([]sim.Time, 64)
	releasedCount := 0
	var lastArrival sim.Time
	for c := 0; c < 64; c++ {
		c := c
		at := sim.Time(c * 3) // staggered arrivals
		if at > lastArrival {
			lastArrival = at
		}
		k.AtEvent(at, fnEvent(func() {
			br.Arrive(c, func() {
				released[c] = k.Now()
				releasedCount++
			})
		}), 0)
	}
	k.Run()
	if releasedCount != 64 {
		t.Fatalf("released %d clusters, want 64", releasedCount)
	}
	for c, at := range released {
		if at < lastArrival {
			t.Fatalf("cluster %d released at %d, before the last arrival at %d", c, at, lastArrival)
		}
	}
	if br.Releases != 1 {
		t.Fatalf("Releases = %d, want 1", br.Releases)
	}
}

func TestBarrierLatencyIsBusBound(t *testing.T) {
	// All clusters arrive simultaneously: release requires 64 serialized
	// one-cycle broadcasts plus propagation, i.e. on the order of 100-300
	// cycles — far cheaper than 64 crossbar round trips to a coordinator
	// under contention.
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	br := NewBarrier(b, 64)
	var last sim.Time
	n := 0
	for c := 0; c < 64; c++ {
		br.Arrive(c, func() { n++; last = k.Now() })
	}
	k.Run()
	if n != 64 {
		t.Fatalf("released %d, want 64", n)
	}
	if last > 400 {
		t.Errorf("barrier completed at %d cycles, want <= 400 (bus-serialized)", last)
	}
	if last < 64 {
		t.Errorf("barrier completed at %d cycles; 64 broadcasts cannot fit", last)
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	br := NewBarrier(b, 64)
	for gen := 0; gen < 3; gen++ {
		n := 0
		for c := 0; c < 64; c++ {
			br.Arrive(c, func() { n++ })
		}
		k.Run()
		if n != 64 {
			t.Fatalf("generation %d released %d, want 64", gen, n)
		}
	}
	if br.Releases != 3 {
		t.Fatalf("Releases = %d, want 3", br.Releases)
	}
}

func TestBarrierDoubleArrivalPanics(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	br := NewBarrier(b, 64)
	br.Arrive(5, nil)
	defer func() {
		if recover() == nil {
			t.Error("double arrival did not panic")
		}
	}()
	br.Arrive(5, nil)
	_ = k
}

func TestBarrierSizeValidation(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("oversized barrier did not panic")
		}
	}()
	NewBarrier(b, 65)
}

// TestBarrierRetriesUnderBackPressure fills one arriving cluster's broadcast
// FIFO with unrelated traffic, so its arrival pulse is refused and must be
// re-offered until the FIFO drains; the barrier still releases everyone.
func TestBarrierRetriesUnderBackPressure(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	b := New(k, cfg)
	br := NewBarrier(b, 4)
	for i := 0; i < cfg.InjectQueue; i++ {
		if !b.Broadcast(&noc.Message{ID: uint64(i), Src: 2, Dst: -1, Size: 64, Kind: noc.KindInvalidate}) {
			t.Fatalf("filler broadcast %d refused", i)
		}
	}
	released := 0
	for c := 0; c < 4; c++ {
		br.Arrive(c, func() { released++ })
	}
	if br.stalled.Len() != 1 {
		t.Fatalf("%d arrival pulses stalled, want 1 (cluster 2's)", br.stalled.Len())
	}
	k.Run()
	if released != 4 || br.Releases != 1 {
		t.Fatalf("released %d clusters over %d episodes, want 4 over 1", released, br.Releases)
	}
	if br.stalled.Len() != 0 {
		t.Fatalf("%d pulses still stalled after the barrier released", br.stalled.Len())
	}
}
