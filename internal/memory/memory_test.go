package memory

import (
	"testing"
	"testing/quick"

	"corona/internal/sim"
)

func TestBandwidthConstants(t *testing.T) {
	ocm := OCMConfig()
	if got := ocm.PerControllerBytesPerSec(); got != 160e9 {
		t.Errorf("OCM per-controller = %v B/s, want 160 GB/s", got)
	}
	if got := ocm.AggregateBytesPerSec(64); got != 10.24e12 {
		t.Errorf("OCM aggregate = %v B/s, want 10.24 TB/s (Table 4)", got)
	}
	ecm := ECMConfig()
	if got := ecm.PerControllerBytesPerSec(); got != 15e9 {
		t.Errorf("ECM per-controller = %v B/s, want 15 GB/s", got)
	}
	if got := ecm.AggregateBytesPerSec(64); got != 0.96e12 {
		t.Errorf("ECM aggregate = %v B/s, want 0.96 TB/s (Table 4)", got)
	}
}

func TestAccessLatency(t *testing.T) {
	// An isolated read completes in ~20 ns plus transfer time.
	k := sim.NewKernel()
	c := NewController(k, OCMConfig(), 0)
	var doneAt sim.Time
	ok := c.Submit(&Request{ID: 1, Addr: 0x1000, ReqBytes: 16, RspBytes: 72,
		Done: func() { doneAt = k.Now() }})
	if !ok {
		t.Fatal("Submit refused on empty controller")
	}
	k.Run()
	// cmd 1 cycle + access 100 + data ceil(72/32)=3 → 104 cycles = 20.8 ns.
	if doneAt != 104 {
		t.Errorf("read completed at %d cycles, want 104", doneAt)
	}
	if c.Served != 1 {
		t.Errorf("Served = %d, want 1", c.Served)
	}
}

func TestWriteLatency(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, OCMConfig(), 0)
	var doneAt sim.Time
	c.Submit(&Request{ID: 1, Addr: 64, Write: true, ReqBytes: 80,
		Done: func() { doneAt = k.Now() }})
	k.Run()
	// cmd+line ceil(80/32)=3 + access 100 = 103.
	if doneAt != 103 {
		t.Errorf("write completed at %d cycles, want 103", doneAt)
	}
}

func TestECMSlowerTransfer(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, ECMConfig(), 0)
	var doneAt sim.Time
	c.Submit(&Request{ID: 1, Addr: 0, ReqBytes: 16, RspBytes: 72,
		Done: func() { doneAt = k.Now() }})
	k.Run()
	// cmd ceil(16/1.5)=11 + access 100 + data ceil(72/1.5)=48 = 159 cycles.
	if doneAt != 159 {
		t.Errorf("ECM read completed at %d cycles, want 159", doneAt)
	}
}

func TestQueueBackPressure(t *testing.T) {
	k := sim.NewKernel()
	cfg := OCMConfig()
	cfg.QueueDepth = 4
	c := NewController(k, cfg, 0)
	accepted := 0
	for i := 0; i < 10; i++ {
		if c.Submit(&Request{ID: uint64(i), Addr: uint64(i * 64), ReqBytes: 16, RspBytes: 72}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d, want 4 (QueueDepth)", accepted)
	}
	if c.QueueFullRefusals != 6 {
		t.Fatalf("refusals = %d, want 6", c.QueueFullRefusals)
	}
	k.Run()
	if c.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", c.QueueLen())
	}
	if !c.Submit(&Request{ID: 99, Addr: 0, ReqBytes: 16, RspBytes: 72}) {
		t.Fatal("still refusing after drain")
	}
}

func TestLinkBandwidthLimit(t *testing.T) {
	// Saturate an OCM controller with reads: steady-state throughput must be
	// link-limited at ~32 B/cycle of line data (72 B transfers every >= 3
	// cycles once the pipeline fills).
	k := sim.NewKernel()
	cfg := OCMConfig()
	cfg.QueueDepth = 1024
	c := NewController(k, cfg, 0)
	const n = 512
	var done int
	var last sim.Time
	for i := 0; i < n; i++ {
		// Spread across banks (bank bits sit above BankShift).
		c.Submit(&Request{ID: uint64(i), Addr: uint64(i) << 12, ReqBytes: 16, RspBytes: 72,
			Done: func() { done++; last = k.Now() }})
	}
	k.Run()
	if done != n {
		t.Fatalf("completed %d, want %d", done, n)
	}
	// Each read needs 1 cycle command + 3 cycles data on the shared fiber:
	// >= 4 cycles per transaction at steady state.
	minCycles := sim.Time(n * 4)
	if last < minCycles {
		t.Errorf("drained %d reads in %d cycles; below the fiber's capacity (min %d)", n, last, minCycles)
	}
	// And the controller should not be grossly slower than the link bound
	// (banks are sized to sustain line rate).
	if last > minCycles+minCycles/2 {
		t.Errorf("drained %d reads in %d cycles; want near link bound %d", n, last, minCycles)
	}
}

func TestECMLinkTenTimesSlower(t *testing.T) {
	run := func(cfg Config) sim.Time {
		k := sim.NewKernel()
		cfg.QueueDepth = 1024
		c := NewController(k, cfg, 0)
		for i := 0; i < 128; i++ {
			c.Submit(&Request{ID: uint64(i), Addr: uint64(i) << 12, ReqBytes: 16, RspBytes: 72})
		}
		k.Run()
		return k.Now()
	}
	o, e := run(OCMConfig()), run(ECMConfig())
	ratio := float64(e) / float64(o)
	// 160 GB/s (shared) vs 7.5 GB/s read direction ≈ 12x at read saturation.
	if ratio < 8 || ratio > 16 {
		t.Errorf("ECM/OCM drain-time ratio = %.1f, want ~12", ratio)
	}
}

func TestBankConflictsSerialize(t *testing.T) {
	k := sim.NewKernel()
	cfg := OCMConfig()
	cfg.Banks = 1
	cfg.BankBusy = 50
	c := NewController(k, cfg, 0)
	var times []sim.Time
	for i := 0; i < 4; i++ {
		c.Submit(&Request{ID: uint64(i), Addr: 0, ReqBytes: 16, RspBytes: 72,
			Done: func() { times = append(times, k.Now()) }})
	}
	k.Run()
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < 50 {
			t.Fatalf("bank-conflicting accesses %d apart, want >= 50 (BankBusy)", times[i]-times[i-1])
		}
	}
}

func TestDaisyChainAddsLatency(t *testing.T) {
	base := OCMConfig()
	deep := OCMConfig()
	deep.DaisyChain = 8
	run := func(cfg Config) sim.Time {
		k := sim.NewKernel()
		c := NewController(k, cfg, 0)
		var at sim.Time
		c.Submit(&Request{ID: 1, Addr: 0, ReqBytes: 16, RspBytes: 72, Done: func() { at = k.Now() }})
		k.Run()
		return at
	}
	b, d := run(base), run(deep)
	if d <= b {
		t.Fatalf("8-module chain latency %d <= single-module %d", d, b)
	}
	// 7 extra module traversals out + 7 back = 14 extra cycles (2.8 ns):
	// "the memory access latency is similar across all modules".
	if d-b != 14 {
		t.Errorf("chain penalty = %d cycles, want 14", d-b)
	}
}

func TestMeanLatency(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, OCMConfig(), 0)
	c.Submit(&Request{ID: 1, Addr: 0, ReqBytes: 16, RspBytes: 72})
	k.Run()
	if got := c.MeanLatencyNs(); got < 20 || got > 22 {
		t.Errorf("mean latency = %v ns, want ~20.8", got)
	}
	empty := NewController(sim.NewKernel(), OCMConfig(), 1)
	if empty.MeanLatencyNs() != 0 {
		t.Error("mean latency of idle controller should be 0")
	}
}

// Property: every submitted request completes exactly once, in bounded time,
// and Served matches the accepted count.
func TestCompletionProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, ecm bool) bool {
		n := int(nRaw%64) + 1
		rng := sim.NewRand(seed)
		k := sim.NewKernel()
		cfg := OCMConfig()
		if ecm {
			cfg = ECMConfig()
		}
		c := NewController(k, cfg, 0)
		var done int
		accepted := 0
		for i := 0; i < n; i++ {
			w := rng.Intn(4) == 0
			r := &Request{ID: uint64(i), Addr: rng.Uint64(), Write: w, Done: func() { done++ }}
			if w {
				r.ReqBytes = 80
			} else {
				r.ReqBytes, r.RspBytes = 16, 72
			}
			if c.Submit(r) {
				accepted++
			}
		}
		if k.RunLimit(1_000_000) >= 1_000_000 {
			return false
		}
		return done == accepted && int(c.Served) == accepted && c.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRequestPanics(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, OCMConfig(), 0)
	defer func() {
		if recover() == nil {
			t.Error("zero-byte read did not panic")
		}
	}()
	c.Submit(&Request{ID: 1, ReqBytes: 0})
}

// fnEvent adapts a closure to the typed sim.Handler path for inline test
// callbacks.
type fnEvent func()

func (f fnEvent) OnEvent(sim.Time, uint64) { f() }

func TestNotifySpace(t *testing.T) {
	k := sim.NewKernel()
	cfg := OCMConfig()
	cfg.QueueDepth = 1
	c := NewController(k, cfg, 0)
	if c.Config().Name != "ocm" {
		t.Fatal("Config accessor wrong")
	}
	c.Submit(&Request{ID: 1, Addr: 0, ReqBytes: 16, RspBytes: 72})
	// Queue is full: the callback must fire only after the retirement.
	fired := false
	c.NotifySpaceEvent(fnEvent(func() {
		fired = true
		if c.QueueLen() >= cfg.QueueDepth {
			t.Error("NotifySpaceEvent fired while the queue was still full")
		}
	}), 0)
	if fired {
		t.Fatal("callback fired synchronously on a full queue")
	}
	k.Run()
	if !fired {
		t.Fatal("callback never fired")
	}
	// With space available the callback fires on the next event.
	fired = false
	c.NotifySpaceEvent(fnEvent(func() { fired = true }), 0)
	k.Run()
	if !fired {
		t.Fatal("immediate NotifySpaceEvent never fired")
	}
}

func TestNotifySpaceFIFO(t *testing.T) {
	k := sim.NewKernel()
	cfg := OCMConfig()
	cfg.QueueDepth = 1
	c := NewController(k, cfg, 0)
	var order []int
	submitAndWait := func(tag int) {
		c.NotifySpaceEvent(fnEvent(func() {
			order = append(order, tag)
			c.Submit(&Request{ID: uint64(tag), Addr: uint64(tag) << 12, ReqBytes: 16, RspBytes: 72})
		}), 0)
	}
	c.Submit(&Request{ID: 99, Addr: 0, ReqBytes: 16, RspBytes: 72})
	submitAndWait(1)
	submitAndWait(2)
	submitAndWait(3)
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("waiter order = %v, want [1 2 3]", order)
	}
}

func TestNewControllerValidation(t *testing.T) {
	k := sim.NewKernel()
	bad := []Config{
		{},
		{InBytesPerCycle: 1, Banks: 0, QueueDepth: 1},
		{InBytesPerCycle: 1, Banks: 1, QueueDepth: 1, HalfDuplex: false, OutBytesPerCycle: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				}
			}()
			NewController(k, cfg, 0)
		}()
	}
}
