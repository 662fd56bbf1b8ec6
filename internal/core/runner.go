package core

import (
	"context"
	"fmt"

	"corona/internal/config"
	"corona/internal/power"
	"corona/internal/sim"
	"corona/internal/trace"
	"corona/internal/traffic"
)

// Result is the outcome of one (configuration, workload) simulation — one
// bar in each of Figures 8-11.
type Result struct {
	Config   string
	Workload string
	Requests int

	// Cycles is the simulated runtime; Figure 8 normalizes its inverse.
	Cycles sim.Time
	// AchievedTBs is Figure 9's rate of communication with main memory.
	AchievedTBs float64
	// MeanLatencyNs and P99LatencyNs report Figure 10's L2 miss latency.
	MeanLatencyNs float64
	P99LatencyNs  float64
	// NetworkPowerW is Figure 11's on-chip network power; MemoryPowerW is
	// the off-stack memory interconnect power.
	NetworkPowerW float64
	MemoryPowerW  float64

	// Diagnostics.
	NetMessages   uint64
	NetBytes      uint64
	HopTraversals uint64
	// XBarUtil is mean data-channel occupancy for crossbar-family fabrics
	// (those whose registry descriptor reports a channel utilization);
	// mesh-style fabrics leave it zero.
	XBarUtil float64
	// KernelEvents is the number of discrete events the simulation kernel
	// dispatched to produce this cell — the denominator for simulator
	// throughput (events/sec) reporting.
	KernelEvents uint64
}

// Speedup returns other's runtime divided by r's (how much faster r is).
func (r Result) Speedup(baseline Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// Source produces per-cluster miss streams; traffic.Generator is the
// synthetic implementation, and traceSource replays recorded traces.
type Source interface {
	Next(cluster int) trace.Record
}

// Runner replays a workload against a System until a fixed number of network
// requests (L2 misses) completes, as the paper does ("We ran each simulation
// for a predetermined number of network requests").
type Runner struct {
	sys      *System
	src      Source
	name     string
	requests int

	perCluster []int          // remaining issues per cluster
	pending    []trace.Record // head record per cluster, valid when hasPending
	hasPending []bool
	waiting    []bool // a timed wake-up is scheduled
}

// NewRunner builds a runner issuing `requests` synthetic misses split evenly
// across clusters.
func NewRunner(sys *System, spec traffic.Spec, requests int, seed uint64) *Runner {
	r := newRunner(sys, traffic.NewGenerator(spec, sys.Cfg.Clusters, seed), spec.Name, requests)
	base := requests / sys.Cfg.Clusters
	extra := requests % sys.Cfg.Clusters
	for c := range r.perCluster {
		r.perCluster[c] = base
		if c < extra {
			r.perCluster[c]++
		}
	}
	return r
}

func newRunner(sys *System, src Source, name string, requests int) *Runner {
	r := &Runner{
		sys:        sys,
		src:        src,
		name:       name,
		requests:   requests,
		perCluster: make([]int, sys.Cfg.Clusters),
		pending:    make([]trace.Record, sys.Cfg.Clusters),
		hasPending: make([]bool, sys.Cfg.Clusters),
		waiting:    make([]bool, sys.Cfg.Clusters),
	}
	sys.SetMSHRFreeHook(func(cluster int) { r.pump(cluster) })
	return r
}

// traceSource replays pre-recorded, per-cluster bucketed records.
type traceSource struct {
	buckets [][]trace.Record
}

func (t *traceSource) Next(cluster int) trace.Record {
	rec := t.buckets[cluster][0]
	t.buckets[cluster] = t.buckets[cluster][1:]
	return rec
}

// NewTraceRunner builds a runner that replays recs (annotated L2 misses,
// e.g. from a trace file or the cluster trace engine) on sys. Records are
// assigned to clusters by thread id with threadsPerCluster threads each, and
// must be per-cluster time-monotone. A record whose thread maps outside the
// machine is invalid input and returns a *ConfigError.
func NewTraceRunner(sys *System, recs []trace.Record, threadsPerCluster int) (*Runner, error) {
	if threadsPerCluster <= 0 {
		return nil, &ConfigError{Name: "trace",
			Err: fmt.Errorf("core: threads-per-cluster must be positive, got %d", threadsPerCluster)}
	}
	buckets := make([][]trace.Record, sys.Cfg.Clusters)
	for _, rec := range recs {
		c := rec.Cluster(threadsPerCluster)
		if c < 0 || c >= sys.Cfg.Clusters {
			return nil, &ConfigError{Name: "trace",
				Err: fmt.Errorf("core: trace thread %d maps to cluster %d, out of range [0,%d)",
					rec.Thread, c, sys.Cfg.Clusters)}
		}
		buckets[c] = append(buckets[c], rec)
	}
	r := newRunner(sys, &traceSource{buckets: buckets}, "trace", len(recs))
	for c := range r.perCluster {
		r.perCluster[c] = len(buckets[c])
	}
	return r, nil
}

// MaterializeStream generates the complete per-cluster miss stream a
// NewRunner with the same (spec, clusters, requests, seed) would draw
// lazily, bucketed by cluster — the paper's "capture the miss stream once"
// step. The generator's per-cluster state is independent (each cluster has
// its own RNG), so eager per-cluster generation yields exactly the records
// the simulation-driven interleaving would, and the buckets can be replayed
// against any number of configurations (ReplayRunner) — the sweep engine
// materializes each row once and shares it, read-only, across the row's
// cells and workers.
func MaterializeStream(spec traffic.Spec, clusters, requests int, seed uint64) [][]trace.Record {
	g := traffic.NewGenerator(spec, clusters, seed)
	buckets := make([][]trace.Record, clusters)
	base, extra := requests/clusters, requests%clusters
	for c := range buckets {
		n := base
		if c < extra {
			n++
		}
		bucket := make([]trace.Record, n)
		for i := range bucket {
			bucket[i] = g.Next(c)
		}
		buckets[c] = bucket
	}
	return buckets
}

// ReplayRunner builds a runner that replays a materialized per-cluster
// stream (MaterializeStream) on sys under the workload's display name. The
// runner takes only fresh slice headers over the shared buckets, never
// writing through them, so one materialized row is safely replayed by
// concurrent cells.
func ReplayRunner(sys *System, name string, buckets [][]trace.Record) (*Runner, error) {
	if len(buckets) != sys.Cfg.Clusters {
		return nil, &ConfigError{Name: "trace", Err: fmt.Errorf(
			"core: materialized stream has %d cluster buckets, system %d", len(buckets), sys.Cfg.Clusters)}
	}
	total := 0
	heads := make([][]trace.Record, len(buckets))
	for c, b := range buckets {
		heads[c] = b
		total += len(b)
	}
	r := newRunner(sys, &traceSource{buckets: heads}, name, total)
	for c := range r.perCluster {
		r.perCluster[c] = len(heads[c])
	}
	return r, nil
}

// issueWake is the runner's typed timed wake-up: the cluster's next record
// lies in the future, so issue resumes when the clock reaches it.
type issueWake Runner

func (e *issueWake) OnEvent(_ sim.Time, data uint64) {
	r := (*Runner)(e)
	r.waiting[data] = false
	r.pump(int(data))
}

// pump issues as many of cluster's trace records as timestamps and MSHR
// capacity allow.
func (r *Runner) pump(cluster int) {
	for r.perCluster[cluster] > 0 {
		if !r.hasPending[cluster] {
			r.pending[cluster] = r.src.Next(cluster)
			r.hasPending[cluster] = true
		}
		rec := &r.pending[cluster]
		if rec.Time > r.sys.K.Now() {
			if !r.waiting[cluster] {
				r.waiting[cluster] = true
				r.sys.K.AtEvent(rec.Time, (*issueWake)(r), uint64(cluster))
			}
			return
		}
		if !r.sys.Issue(cluster, rec.Addr, rec.Write) {
			return // MSHR full; the free hook re-pumps
		}
		r.hasPending[cluster] = false
		r.perCluster[cluster]--
	}
}

// cancelCheckEvents is how many kernel events the replay loop dispatches
// between context checks. The typed kernel sustains tens of millions of
// events per second, so a few thousand events bound cancellation latency to
// well under a millisecond while keeping the check off the per-event path.
const cancelCheckEvents = 4096

// Run executes the replay to completion and returns the Result. The replay
// loop checks ctx between batches of kernel events, so a canceled or expired
// context stops a long cell promptly with a *CanceledError recording how far
// it got. A deadlock (event queue empty before all requests retire) is
// reported as an error rather than a panic: behind a server it is a request
// failure, not a process failure.
func (r *Runner) Run(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, &CanceledError{Completed: 0, Total: r.requests, Err: err}
	}
	for c := 0; c < r.sys.Cfg.Clusters; c++ {
		r.pump(c)
	}
	done := ctx.Done()
	sinceCheck := 0
	for r.sys.Completed() < r.requests {
		if !r.sys.K.Step() {
			return Result{}, fmt.Errorf("core: deadlock with %d of %d requests completed",
				r.sys.Completed(), r.requests)
		}
		if done == nil {
			continue
		}
		if sinceCheck++; sinceCheck >= cancelCheckEvents {
			sinceCheck = 0
			select {
			case <-done:
				return Result{}, &CanceledError{
					Completed: r.sys.Completed(), Total: r.requests, Err: ctx.Err()}
			default:
			}
		}
	}
	return r.collect(), nil
}

func (r *Runner) collect() Result {
	sys := r.sys
	elapsed := sys.K.Now()
	ns := sys.NetworkStats()
	res := Result{
		Config:        sys.Cfg.Name(),
		Workload:      r.name,
		Requests:      r.requests,
		Cycles:        elapsed,
		MeanLatencyNs: sys.Latency.Mean(),
		P99LatencyNs:  sys.Latency.Percentile(99),
		NetMessages:   ns.Messages,
		NetBytes:      ns.Bytes,
		HopTraversals: ns.HopTraversals,
		KernelEvents:  sys.K.Executed(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.AchievedTBs = float64(sys.WireBytes) / sec / 1e12
	}
	if sys.fabric.PowerW != nil {
		res.NetworkPowerW = sys.fabric.PowerW(ns, elapsed)
	}
	if sys.fabric.Utilization != nil {
		res.XBarUtil = sys.fabric.Utilization(sys.Net, elapsed)
	}
	memBytes := sys.MemoryBytesMoved()
	if sys.Cfg.Mem == config.OCM {
		res.MemoryPowerW = power.OCMInterconnectW(memBytes, elapsed)
	} else {
		res.MemoryPowerW = power.ECMInterconnectW(memBytes, elapsed)
	}
	return res
}

// Run is the one-call convenience: build a system for cfg, replay spec for
// `requests` misses with the given seed, and return the Result. Invalid
// configurations surface as *ConfigError, cancellation as *CanceledError.
func Run(ctx context.Context, cfg config.System, spec traffic.Spec, requests int, seed uint64) (Result, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	return NewRunner(sys, spec, requests, seed).Run(ctx)
}
