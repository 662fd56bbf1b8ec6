package cohsim

import (
	"testing"
	"testing/quick"

	"corona/internal/coherence"
	"corona/internal/sim"
)

// fnEvent adapts a closure to the typed sim.Handler path for inline test
// schedules.
type fnEvent func()

func (f fnEvent) OnEvent(sim.Time, uint64) { f() }

func TestColdReadCommits(t *testing.T) {
	s := New(DefaultConfig())
	done := false
	s.Access(5, 0x40, false, func() { done = true })
	s.Run(1)
	if !done {
		t.Fatal("transaction never committed")
	}
	if st := s.Protocol().StateOf(5, 0x40); st != coherence.Exclusive {
		t.Fatalf("state = %v, want E", st)
	}
	// Cold read: request to home + memory + data back ≈ 20 ns memory plus
	// tens of cycles of network; must exceed the raw memory latency.
	if mean := s.ReadLatency.Mean(); mean < 20 || mean > 60 {
		t.Errorf("cold read latency = %v ns, want 20-60", mean)
	}
}

func TestLocalHitIsFast(t *testing.T) {
	s := New(DefaultConfig())
	s.Access(3, 0x40, false, nil)
	s.Run(1)
	s.Access(3, 0x40, false, nil) // now a pure hub hit
	s.Run(2)
	if s.ReadLatency.Max() < s.ReadLatency.Mean()*1.5 {
		t.Log("latency spread small; acceptable")
	}
	if s.ReadLatency.Min() > 2 {
		t.Errorf("hit latency = %v ns, want ~0.8 (hub only)", s.ReadLatency.Min())
	}
}

func TestCacheToCacheForward(t *testing.T) {
	s := New(DefaultConfig())
	s.Access(1, 0x80, true, nil) // M at 1
	s.Run(1)
	memBefore := s.Stats().DataFromMemory
	s.Access(2, 0x80, false, nil) // must forward from 1, not memory
	s.Run(2)
	if s.Stats().DataFromMemory != memBefore {
		t.Error("read after remote M went to memory instead of forwarding")
	}
	if st := s.Protocol().StateOf(1, 0x80); st != coherence.Owned {
		t.Errorf("previous owner = %v, want O", st)
	}
}

func TestWriteInvalidatesWithTiming(t *testing.T) {
	s := New(DefaultConfig())
	line := uint64(0x1000)
	issued := uint64(0)
	for n := 0; n < 10; n++ {
		s.Access(n, line, false, nil)
		issued++
		s.Run(issued) // serialize to build the sharer set deterministically
	}
	s.Access(20, line, true, nil)
	issued++
	s.Run(issued)
	for n := 0; n < 10; n++ {
		if st := s.Protocol().StateOf(n, line); st != coherence.Invalid {
			t.Fatalf("sharer %d not invalidated (state %v)", n, st)
		}
	}
	if st := s.Protocol().StateOf(20, line); st != coherence.Modified {
		t.Fatalf("writer state = %v, want M", st)
	}
	if s.BusBroadcasts() == 0 {
		t.Error("wide invalidation should have used the broadcast bus")
	}
	if err := s.Protocol().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBusBeatsUnicastInvalidation(t *testing.T) {
	// The package's headline experiment: invalidating a 40-cluster sharer
	// pool must be faster and cheaper on the bus than with unicasts.
	// The writer is itself a sharer (an upgrade), so its data is on hand and
	// the measured latency is purely the invalidation exchange.
	run := func(useBus bool) (latNs float64, netMsgs uint64) {
		cfg := DefaultConfig()
		cfg.UseBus = useBus
		s := New(cfg)
		var issued uint64
		line := uint64(0x2000)
		for n := 0; n < 41; n++ {
			s.Access(n, line, false, nil)
			issued++
			s.Run(issued)
		}
		before := s.NetworkMessages()
		s.Access(40, line, true, nil) // sharer upgrades, invalidating 40 others
		issued++
		s.Run(issued)
		return s.InvLatency.Mean(), s.NetworkMessages() - before
	}
	busLat, busMsgs := run(true)
	uniLat, uniMsgs := run(false)
	if busLat >= uniLat {
		t.Errorf("bus invalidation latency %v ns >= unicast %v ns", busLat, uniLat)
	}
	if busMsgs >= uniMsgs {
		t.Errorf("bus invalidation used %d crossbar messages >= unicast %d", busMsgs, uniMsgs)
	}
	// Unicast costs ~2 crossbar messages per sharer (Inv + Ack).
	if uniMsgs < 70 {
		t.Errorf("unicast messages = %d, want ~80 for 40 sharers", uniMsgs)
	}
}

func TestLineSerialization(t *testing.T) {
	// Two concurrent writes to one line must serialize at the directory and
	// leave exactly one Modified holder.
	s := New(DefaultConfig())
	s.Access(1, 0x40, true, nil)
	s.Access(2, 0x40, true, nil)
	s.Run(2)
	m1 := s.Protocol().StateOf(1, 0x40) == coherence.Modified
	m2 := s.Protocol().StateOf(2, 0x40) == coherence.Modified
	if m1 == m2 {
		t.Fatalf("exactly one writer must end Modified (got %v/%v)", m1, m2)
	}
	if err := s.Protocol().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of timed reads and writes completes without
// deadlock and preserves the MOESI invariants.
func TestTimedProtocolProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := sim.NewRand(seed)
		ops := uint64(opsRaw%60) + 1
		s := New(DefaultConfig())
		lines := []uint64{0x40, 0x80, 0xc0}
		for i := uint64(0); i < ops; i++ {
			node := rng.Intn(64)
			line := lines[rng.Intn(len(lines))]
			write := rng.Intn(3) == 0
			delay := sim.Time(rng.Intn(40))
			s.K.ScheduleEvent(delay, fnEvent(func() { s.Access(node, line, write, nil) }), 0)
		}
		// Drive manually: Access calls are scheduled, so Completed advances
		// as the kernel drains.
		if s.K.RunLimit(3_000_000) >= 3_000_000 {
			return false
		}
		if s.Completed != ops {
			t.Logf("completed %d of %d", s.Completed, ops)
			return false
		}
		return s.Protocol().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSilentUpgrade(t *testing.T) {
	s := New(DefaultConfig())
	s.Access(7, 0x40, false, nil) // E
	s.Run(1)
	msgs := s.NetworkMessages()
	s.Access(7, 0x40, true, nil) // silent E->M
	s.Run(2)
	if s.NetworkMessages() != msgs {
		t.Error("silent upgrade generated network traffic")
	}
	if st := s.Protocol().StateOf(7, 0x40); st != coherence.Modified {
		t.Fatalf("state = %v, want M", st)
	}
}
