package corona

// The benchmark harness regenerates every table and figure of the paper's
// evaluation:
//
//	go test -bench=Table -benchmem      # Tables 1-4 (analytic)
//	go test -bench=Fig -benchmem        # Figures 8-11 (full 5x15 sweep)
//	go test -bench=Component -benchmem  # interconnect/memory micro-benches
//
// Figure benches share one sweep per request scale (cached across benches)
// and report the paper's headline statistics as custom metrics. Absolute
// numbers depend on the synthetic workload substitution (see DESIGN.md);
// the shapes — who wins, by what factor, where the crossovers fall — are
// the reproduction target. Use cmd/corona-sweep to print the full rows.

import (
	"container/heap"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"corona/internal/config"
	"corona/internal/core"
	"corona/internal/memory"
	"corona/internal/mesh"
	"corona/internal/noc"
	"corona/internal/sim"
	"corona/internal/traffic"
	"corona/internal/xbar"
)

// benchRequests is the per-cell request count for figure benches: large
// enough for stable steady-state shapes, small enough to keep the full
// 75-cell matrix in the tens of seconds even sequentially.
const benchRequests = 8000

var (
	sweepOnce   sync.Once
	sweepShared *core.Sweep
)

func benchSweep(b *testing.B) *core.Sweep {
	b.Helper()
	sweepOnce.Do(func() {
		s := core.NewSweep(benchRequests, 42)
		if err := s.Run(context.Background()); err != nil { // parallel engine, GOMAXPROCS workers
			b.Fatal(err)
		}
		sweepShared = s
	})
	return sweepShared
}

// BenchmarkSweepEngine times the full 5x15 matrix sequentially (Workers(1))
// and on the parallel engine, reports the wall-clock speedup, and fails if
// the two runs' Figure 8-11 tables are not byte-identical — the determinism
// guarantee asserted at full-matrix scale. One iteration is enough:
//
//	go test -bench=SweepEngine -benchtime=1x
//
// The 75 cells are embarrassingly parallel (no shared state, no
// synchronization inside a cell), so the reported "speedup" tracks the
// host's core count until the longest cells — the saturated LMesh/ECM
// columns — dominate the tail. On a single-core host it sits at ~1.0,
// which doubles as a check that the engine itself adds no overhead.
func BenchmarkSweepEngine(b *testing.B) {
	const requests = 2000 // smaller cells than benchRequests: this bench pays for the matrix twice
	for i := 0; i < b.N; i++ {
		seq := core.NewSweep(requests, 42)
		t0 := time.Now()
		if err := seq.Run(context.Background(), core.Workers(1)); err != nil {
			b.Fatal(err)
		}
		seqElapsed := time.Since(t0)

		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		par := core.NewSweep(requests, 42)
		t1 := time.Now()
		if err := par.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		parElapsed := time.Since(t1)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)

		if seq.Figure8().String() != par.Figure8().String() ||
			seq.Figure9().String() != par.Figure9().String() ||
			seq.Figure10().String() != par.Figure10().String() ||
			seq.Figure11().String() != par.Figure11().String() {
			b.Fatal("parallel sweep tables differ from sequential")
		}
		// Kernel throughput across the whole matrix: total discrete events
		// dispatched per wall-clock second of the parallel run, and heap
		// allocations amortized per event (the wheel kernel's zero-allocation
		// claim at system scale — remaining allocations are messages and
		// per-cell setup, not scheduler nodes).
		var events uint64
		for _, row := range par.Results {
			for _, cell := range row {
				events += cell.KernelEvents
			}
		}
		allocs := after.Mallocs - before.Mallocs
		b.ReportMetric(float64(events)/parElapsed.Seconds(), "events/s")
		b.ReportMetric(float64(allocs)/float64(events), "allocs/event")
		b.ReportMetric(float64(allocs)/75, "allocs/cell")
		b.ReportMetric(seqElapsed.Seconds(), "seq-s")
		b.ReportMetric(parElapsed.Seconds(), "par-s")
		b.ReportMetric(seqElapsed.Seconds()/parElapsed.Seconds(), "speedup")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	}
}

// --- Kernel micro-benches: scheduler throughput in isolation. ---
//
// The workload is the component steady state: a fixed population of 64
// self-perpetuating event chains (one per cluster) with mixed 1-16 cycle
// delays, so every dispatch schedules exactly one successor. Two variants
// share it: the typed Handler path and a faithful reimplementation of the
// seed's container/heap kernel as the before/after baseline.
// docs/PERFORMANCE.md records the numbers.

// kernelChains is the in-flight event population for kernel benches.
const kernelChains = 64

func kernelNextData(data uint64) uint64 { return data*2654435761 + 12345 }

func kernelDelay(data uint64) sim.Time { return sim.Time(data&15) + 1 }

// benchHandler is the typed-path target: reschedules itself forever;
// RunLimit bounds the run.
type benchHandler struct {
	k *sim.Kernel
}

func (h *benchHandler) OnEvent(_ sim.Time, data uint64) {
	h.k.ScheduleEvent(kernelDelay(data), h, kernelNextData(data))
}

// seedEvent/seedHeap/seedKernel reimplement the pre-wheel kernel —
// container/heap of captured closures, interface{} boxing on every push and
// pop — exactly as the seed shipped it, so BenchmarkKernel/seed-heap is the
// honest baseline for the wheel's speedup claim.
type seedEvent struct {
	when sim.Time
	seq  uint64
	fn   func()
}

type seedHeap []seedEvent

func (h seedHeap) Len() int { return len(h) }
func (h seedHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h seedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *seedHeap) Push(x interface{}) { *h = append(*h, x.(seedEvent)) }
func (h *seedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type seedKernel struct {
	pq  seedHeap
	now sim.Time
	seq uint64
}

func (k *seedKernel) Schedule(delay sim.Time, fn func()) {
	k.seq++
	heap.Push(&k.pq, seedEvent{when: k.now + delay, seq: k.seq, fn: fn})
}

func (k *seedKernel) RunLimit(n uint64) {
	for i := uint64(0); i < n && len(k.pq) > 0; i++ {
		e := heap.Pop(&k.pq).(seedEvent)
		k.now = e.when
		e.fn()
	}
}

// BenchmarkKernel compares scheduler paths on the same self-perpetuating
// workload; events/s is the headline metric, allocs/op the zero-allocation
// check (typed path: 0 steady-state allocs; seed heap: one closure per event
// plus queue growth).
func BenchmarkKernel(b *testing.B) {
	b.Run("typed", func(b *testing.B) {
		k := sim.NewKernel()
		h := &benchHandler{k: k}
		for i := 0; i < kernelChains; i++ {
			k.ScheduleEvent(sim.Time(i&15)+1, h, uint64(i)*7919)
		}
		b.ReportAllocs()
		b.ResetTimer()
		k.RunLimit(uint64(b.N))
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("seed-heap", func(b *testing.B) {
		k := &seedKernel{}
		var step func(data uint64)
		step = func(data uint64) {
			next := kernelNextData(data)
			k.Schedule(kernelDelay(data), func() { step(next) })
		}
		for i := 0; i < kernelChains; i++ {
			step(uint64(i) * 7919)
		}
		b.ReportAllocs()
		b.ResetTimer()
		k.RunLimit(uint64(b.N))
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkTable1Config regenerates the resource configuration table.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Inventory regenerates the optical resource inventory and
// reports the paper's totals (388 waveguides, ~1056 K rings).
func BenchmarkTable2Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table2().String() == "" {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(388, "waveguides")
	b.ReportMetric(1056, "Krings")
}

// BenchmarkTable3Benchmarks regenerates the benchmark setup table.
func BenchmarkTable3Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table3().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4Memory regenerates the OCM-vs-ECM comparison and reports
// the aggregate bandwidths.
func BenchmarkTable4Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table4().String() == "" {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(memory.OCMConfig().AggregateBytesPerSec(64)/1e12, "OCM-TB/s")
	b.ReportMetric(memory.ECMConfig().AggregateBytesPerSec(64)/1e12, "ECM-TB/s")
}

// BenchmarkFig8Speedup runs the sweep and reports the paper's headline
// geometric-mean speedups (paper: synthetics 3.28 / 2.36, SPLASH 1.80 /
// 1.44).
func BenchmarkFig8Speedup(b *testing.B) {
	var s *core.Sweep
	for i := 0; i < b.N; i++ {
		s = benchSweep(b)
	}
	synOCM, synXBar := s.GeoMeanSummary(0, 4)
	splOCM, splXBar := s.GeoMeanSummary(4, 15)
	b.ReportMetric(synOCM, "syn-OCM/ECM")
	b.ReportMetric(synXBar, "syn-XBar/HMesh")
	b.ReportMetric(splOCM, "splash-OCM/ECM")
	b.ReportMetric(splXBar, "splash-XBar/HMesh")
}

// BenchmarkFig9Bandwidth reports XBar/OCM's peak achieved bandwidth across
// workloads (the tallest bar of Figure 9).
func BenchmarkFig9Bandwidth(b *testing.B) {
	var s *core.Sweep
	for i := 0; i < b.N; i++ {
		s = benchSweep(b)
	}
	xo := len(s.Configs) - 1 // XBar/OCM
	var peak, base float64
	for w := range s.Workloads {
		if v := s.Results[w][xo].AchievedTBs; v > peak {
			peak = v
		}
		if v := s.Results[w][0].AchievedTBs; v > base {
			base = v
		}
	}
	b.ReportMetric(peak, "xbar-peak-TB/s")
	b.ReportMetric(base, "lmesh-peak-TB/s")
}

// BenchmarkFig10Latency reports mean L2 miss latency on the best and worst
// configurations for the uniform workload.
func BenchmarkFig10Latency(b *testing.B) {
	var s *core.Sweep
	for i := 0; i < b.N; i++ {
		s = benchSweep(b)
	}
	b.ReportMetric(s.Results[0][len(s.Configs)-1].MeanLatencyNs, "xbar-uniform-ns")
	b.ReportMetric(s.Results[0][0].MeanLatencyNs, "lmesh-uniform-ns")
}

// BenchmarkFig11Power reports the crossbar's constant draw and the worst
// mesh dynamic power across all workloads.
func BenchmarkFig11Power(b *testing.B) {
	var s *core.Sweep
	for i := 0; i < b.N; i++ {
		s = benchSweep(b)
	}
	var worstMesh float64
	for w := range s.Workloads {
		for c := 0; c < len(s.Configs)-1; c++ {
			if v := s.Results[w][c].NetworkPowerW; v > worstMesh {
				worstMesh = v
			}
		}
	}
	b.ReportMetric(26, "xbar-W")
	b.ReportMetric(worstMesh, "mesh-worst-W")
}

// --- Component micro-benches: simulator throughput per subsystem. ---
//
// The network benches drive the pooled message lifecycle exactly as the hub
// does — Acquire, fill, Send, and Consume (which recycles) at delivery — so
// their allocs/op is the steady-state cost of the Send→Consume path itself:
// zero once the pool and the scheduler have grown to the in-flight peak.

// BenchmarkComponentXBar measures crossbar message throughput.
func BenchmarkComponentXBar(b *testing.B) {
	k := sim.NewKernel()
	x := xbar.New(k, xbar.DefaultConfig())
	var delivered int
	for c := 0; c < 64; c++ {
		c := c
		x.SetDeliver(c, func(m *noc.Message) { delivered++; x.Consume(c, m) })
	}
	rng := sim.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.Intn(64)
		dst := rng.Intn(63)
		if dst >= src {
			dst++
		}
		for {
			m := x.Acquire()
			m.ID, m.Src, m.Dst, m.Size = uint64(i), src, dst, 64
			if x.Send(m) {
				break
			}
			x.Release(m) // refused: recycle and let the model drain
			k.Step()
		}
		if i%64 == 0 {
			k.RunLimit(1024)
		}
	}
	k.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkComponentMesh measures HMesh message throughput.
func BenchmarkComponentMesh(b *testing.B) {
	k := sim.NewKernel()
	m := mesh.New(k, mesh.HMeshConfig())
	var delivered int
	for c := 0; c < 64; c++ {
		c := c
		m.SetDeliver(c, func(msg *noc.Message) { delivered++; m.Consume(c, msg) })
	}
	rng := sim.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.Intn(64)
		dst := rng.Intn(63)
		if dst >= src {
			dst++
		}
		for {
			msg := m.Acquire()
			msg.ID, msg.Src, msg.Dst, msg.Size = uint64(i), src, dst, 64
			msg.Kind = noc.KindResponse
			if m.Send(msg) {
				break
			}
			m.Release(msg)
			k.Step()
		}
		if i%64 == 0 {
			k.RunLimit(4096)
		}
	}
	k.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkComponentMemory measures OCM controller transaction throughput.
func BenchmarkComponentMemory(b *testing.B) {
	k := sim.NewKernel()
	cfg := memory.OCMConfig()
	cfg.QueueDepth = 1 << 20
	c := memory.NewController(k, cfg, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(&memory.Request{ID: uint64(i), Addr: uint64(i) << 12, ReqBytes: 16, RspBytes: 72})
		if i%256 == 0 {
			k.RunLimit(4096)
		}
	}
	k.Run()
	if int(c.Served) != b.N {
		b.Fatalf("served %d of %d", c.Served, b.N)
	}
}

// BenchmarkComponentEndToEnd measures full-system simulated requests per
// wall-clock second on the flagship configuration.
func BenchmarkComponentEndToEnd(b *testing.B) {
	spec := traffic.Spec{Name: "bench", Kind: traffic.Uniform, DemandTBs: 3, WriteFrac: 0.3}
	b.ResetTimer()
	if _, err := core.Run(context.Background(), config.Corona(), spec, b.N, 7); err != nil {
		b.Fatal(err)
	}
}
