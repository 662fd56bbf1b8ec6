package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/config"
	"corona/internal/noc"
	"corona/internal/sim"
	"corona/internal/trace"
)

// idleMachines snapshots the Client's idle set as machine -> pool key.
func idleMachines(c *Client) map[*System]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[*System]string)
	for key, free := range c.idle {
		for _, sys := range free {
			out[sys] = key
		}
	}
	return out
}

// submitAndWait runs s as a job on c and returns the job's terminal error.
func submitAndWait(t *testing.T, c *Client, s *Sweep, opts ...Option) error {
	t.Helper()
	job, err := c.Submit(context.Background(), s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return job.Wait(context.Background())
}

// TestClientReusesMachinesAcrossJobs runs the 6x15 matrix twice on one
// Client. The second job must run on the first job's machines alone — its
// idle set comes back as exactly the same machines, so nothing was built —
// and its results must be field-identical to a fresh Client's.
func TestClientReusesMachinesAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("three 90-cell matrices per worker count")
	}
	for _, workers := range []int{1, 0} {
		client := NewClient(WithWorkers(workers))
		if err := submitAndWait(t, client, sixMachineMatrix(300)); err != nil {
			t.Fatal(err)
		}
		first := idleMachines(client)
		if len(first) < 6 {
			t.Fatalf("Workers(%d): %d idle machines after the first job, want one per config at least", workers, len(first))
		}
		again := sixMachineMatrix(300)
		if err := submitAndWait(t, client, again); err != nil {
			t.Fatal(err)
		}
		if second := idleMachines(client); !reflect.DeepEqual(second, first) {
			t.Fatalf("Workers(%d): second job's machines differ from the first's (%d vs %d idle): it built machines",
				workers, len(second), len(first))
		}
		fresh := sixMachineMatrix(300)
		if err := submitAndWait(t, NewClient(WithWorkers(workers)), fresh); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Results, fresh.Results) {
			t.Fatalf("Workers(%d): results on reused machines differ from a fresh Client's", workers)
		}
	}
}

// TestClientConcurrentResubmits submits the same matrices from several
// goroutines at once on one Client, so calls race to borrow and restore
// its idle set (CI runs this under -race), and holds every job to a fresh
// Client's results.
func TestClientConcurrentResubmits(t *testing.T) {
	mk := func(seed uint64) *Sweep {
		return NewMatrixSweep([]config.System{config.Corona(), config.Default(config.HMesh, config.ECM)},
			AllWorkloads()[:4], 200, seed)
	}
	want := make([][][]Result, 2)
	for i := range want {
		ref := mk(uint64(i + 1))
		if err := submitAndWait(t, NewClient(WithWorkers(1)), ref); err != nil {
			t.Fatal(err)
		}
		want[i] = ref.Results
	}
	client := NewClient(WithWorkers(2))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				s := mk(uint64(g%2 + 1))
				job, err := client.Submit(context.Background(), s)
				if err == nil {
					err = job.Wait(context.Background())
				}
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				if !reflect.DeepEqual(s.Results, want[g%2]) {
					t.Errorf("goroutine %d round %d: results differ from a fresh Client's", g, round)
				}
			}
		}(g)
	}
	wg.Wait()
	for sys := range idleMachines(client) {
		assertPristine(t, sys)
	}
}

// faultyMode arms the faulty test fabric: after faultySends injections on a
// machine, faultPanic panics and faultDrop swallows every further message,
// which wedges the cell into the runner's deadlock error.
var faultyMode atomic.Int32

const (
	faultOff int32 = iota
	faultPanic
	faultDrop

	faultySends = 40
)

// faultyNet is an XBar that misbehaves mid-run when faultyMode is armed.
// faulted is sticky across Reset, so a faulted machine that re-entered a
// pool would still be recognizable.
type faultyNet struct {
	noc.Network
	sends   int
	faulted bool
}

func (n *faultyNet) Send(m *noc.Message) bool {
	if mode := faultyMode.Load(); mode != faultOff {
		if n.sends++; n.sends > faultySends {
			n.faulted = true
			if mode == faultPanic {
				panic("faulty fabric: injected mid-run panic")
			}
			return true // dropped: never delivered, never consumed
		}
	}
	return n.Network.Send(m)
}

func (n *faultyNet) Reset() {
	n.sends = 0
	n.Network.(noc.Resetter).Reset()
}

var registerFaulty sync.Once

// faultyConfig registers the faulty fabric once per process and returns a
// machine built on it.
func faultyConfig() config.System {
	registerFaulty.Do(func() {
		xb, _ := noc.Lookup("xbar")
		f := xb
		f.Name, f.Display, f.Description = "faulty-xbar", "FaultyXBar", "test-only crossbar that fails mid-run on demand"
		f.Utilization = nil
		f.Build = func(k *sim.Kernel, p noc.FabricParams) (noc.Network, error) {
			net, err := xb.Build(k, p)
			if err != nil {
				return nil, err
			}
			return &faultyNet{Network: net}, nil
		}
		noc.Register(f)
	})
	return config.Custom("", "faulty-xbar", config.OCM, nil)
}

// assertNoFaultedIdle fails if any idle machine ever faulted.
func assertNoFaultedIdle(t *testing.T, c *Client) {
	t.Helper()
	for sys := range idleMachines(c) {
		if n, ok := sys.Net.(*faultyNet); ok && n.faulted {
			t.Fatal("a machine whose cell failed re-entered the Client's pool")
		}
	}
}

// TestFailedCellMachineNeverPooled fails a cell mid-run — by panic and by
// deadlock — and requires that the failed machine stays out of the Client's
// idle set, and that the next job on the same Client, with concurrent
// Submits racing for the pool, matches a fresh Client.
func TestFailedCellMachineNeverPooled(t *testing.T) {
	defer faultyMode.Store(faultOff)
	mk := func() *Sweep {
		return NewMatrixSweep([]config.System{faultyConfig(), config.Corona()},
			AllWorkloads()[:3], 400, 5)
	}
	fresh := mk()
	if err := submitAndWait(t, NewClient(), fresh); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mode int32
		want func(error) bool
	}{
		{"panic", faultPanic, func(err error) bool { var pe *PanicError; return errors.As(err, &pe) }},
		{"error", faultDrop, func(err error) bool { return err != nil && !isCanceled(err) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				client := NewClient(WithWorkers(workers))
				if err := submitAndWait(t, client, mk()); err != nil { // warm the pool
					t.Fatal(err)
				}
				faultyMode.Store(tc.mode)
				err := submitAndWait(t, client, mk())
				faultyMode.Store(faultOff)
				if !tc.want(err) {
					t.Fatalf("Workers(%d): faulty job = %v", workers, err)
				}
				assertNoFaultedIdle(t, client)

				var wg sync.WaitGroup
				for g := 0; g < 3; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s := mk()
						job, err := client.Submit(context.Background(), s)
						if err == nil {
							err = job.Wait(context.Background())
						}
						if err != nil {
							t.Errorf("Workers(%d): job after the fault: %v", workers, err)
						} else if !reflect.DeepEqual(s.Results, fresh.Results) {
							t.Errorf("Workers(%d): job after the fault differs from a fresh Client's", workers)
						}
					}()
				}
				wg.Wait()
				assertNoFaultedIdle(t, client)
			}
		})
	}
}

// TestClientIdleMachinesBounded runs calls over disjoint configuration sets
// on one Client. After each call the idle set holds only that call's
// configurations, at most its worker count per configuration — the memory
// bound the pool promises.
func TestClientIdleMachinesBounded(t *testing.T) {
	combos := config.Combos()
	swmr := config.Custom("", "swmr", config.OCM, nil)
	client := NewClient(WithWorkers(3))
	check := func(call string, workers int, configs ...config.System) {
		t.Helper()
		allowed := make(map[string]bool)
		for _, cfg := range configs {
			allowed[machineKey(cfg)] = true
		}
		perKey := make(map[string]int)
		for _, key := range idleMachines(client) {
			if !allowed[key] {
				t.Fatalf("after %s: idle machine of a configuration the call did not use", call)
			}
			if perKey[key]++; perKey[key] > workers {
				t.Fatalf("after %s: %d idle machines of one configuration, bound %d", call, perKey[key], workers)
			}
		}
		if len(perKey) == 0 {
			t.Fatalf("after %s: no idle machines", call)
		}
	}
	matrix := func(configs []config.System) *Sweep {
		return NewMatrixSweep(configs, AllWorkloads()[:6], 200, 3)
	}
	if err := submitAndWait(t, client, matrix(combos[:2])); err != nil {
		t.Fatal(err)
	}
	check("the first job", 3, combos[:2]...)
	// One configuration under three workers grows up to three machines of
	// it; a one-worker job on it may then keep only one.
	if err := submitAndWait(t, client, matrix(combos[2:3])); err != nil {
		t.Fatal(err)
	}
	check("a job over a disjoint config", 3, combos[2])
	if err := submitAndWait(t, client, matrix(combos[2:3]), Workers(1)); err != nil {
		t.Fatal(err)
	}
	check("a one-worker job over the same config", 1, combos[2])
	if err := submitAndWait(t, client, matrix(combos[3:])); err != nil {
		t.Fatal(err)
	}
	check("a job over disjoint configs", 3, combos[3:]...)
	if _, err := client.Compare(context.Background(), quickSpec(1), 200, 9, swmr, combos[0]); err != nil {
		t.Fatal(err)
	}
	check("Compare", 3, swmr, combos[0])
	if _, err := client.Run(context.Background(), config.Corona(), quickSpec(1), 200, 9); err != nil {
		t.Fatal(err)
	}
	check("Run", 1, config.Corona())
}

// TestIdleMachineHoldsNoRunner checks that a machine parked in the Client's
// idle set keeps nothing of its last cell alive: the Runner, the Runner's
// source and the row stream it replayed must all be collectable while the
// machine itself stays pooled.
func TestIdleMachineHoldsNoRunner(t *testing.T) {
	client := NewClient()
	cfg := config.Corona()
	key := machineKey(cfg)
	spec := quickSpec(1)
	collected := make(chan string, 3)
	pool := client.borrow([]string{key}, 1)
	_, err := pool.run(context.Background(), key, cfg, func(sys *System) (*Runner, error) {
		buckets := MaterializeStream(spec, sys.Cfg.Clusters, 600, CellSeed(1, spec.Name))
		runtime.SetFinalizer(&buckets[0][0], func(*trace.Record) { collected <- "row stream" })
		r, err := ReplayRunner(sys, spec.Name, buckets)
		if err != nil {
			return nil, err
		}
		runtime.SetFinalizer(r, func(*Runner) { collected <- "runner" })
		runtime.SetFinalizer(r.src.(*traceSource), func(*traceSource) { collected <- "source" })
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	client.restore(pool)
	if n := len(idleMachines(client)); n != 1 {
		t.Fatalf("%d idle machines after one cell, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for freed := 0; freed < 3; {
		runtime.GC()
		select {
		case <-collected:
			freed++
		case <-ctx.Done():
			t.Fatalf("only %d of runner, source and row stream were collected: the idle machine keeps the rest reachable", freed)
		default:
			runtime.Gosched()
		}
	}
	runtime.KeepAlive(client)
}

// BenchmarkClientResubmit measures the per-cell cost of a fleet worker's
// steady state: the serve-fleet-sized matrix (XBar/OCM and HMesh/ECM x 15
// workloads, 128 requests per cell) submitted again and again, on one
// one-worker Client ("reuse") and on a new Client per submission ("fresh",
// every machine built). The gap between the two is the machine pool's
// saving; it reports ns/cell and allocs/cell.
func BenchmarkClientResubmit(b *testing.B) {
	configs := []config.System{config.Corona(), config.Default(config.HMesh, config.ECM)}
	workloads := AllWorkloads()
	cells := len(configs) * len(workloads)
	for _, mode := range []string{"reuse", "fresh"} {
		b.Run(mode, func(b *testing.B) {
			client := NewClient(WithWorkers(1))
			submit := func() {
				if mode == "fresh" {
					client = NewClient(WithWorkers(1))
				}
				job, err := client.Submit(context.Background(), NewMatrixSweep(configs, workloads, 128, 1))
				if err == nil {
					err = job.Wait(context.Background())
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			submit() // a reusing Client starts warm
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * cells)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/cell")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/cell")
		})
	}
}
