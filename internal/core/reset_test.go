package core

import (
	"context"
	"testing"

	"corona/internal/config"
	"corona/internal/noc"
	"corona/internal/traffic"
)

// replayCell runs one sweep-style cell — the workload's materialized stream
// replayed on sys — and returns its Result.
func replayCell(t *testing.T, sys *System, spec traffic.Spec, requests int) Result {
	t.Helper()
	buckets := MaterializeStream(spec, sys.Cfg.Clusters, requests, CellSeed(1, spec.Name))
	r, err := ReplayRunner(sys, spec.Name, buckets)
	if err != nil {
		t.Fatalf("ReplayRunner(%s, %s): %v", sys.Cfg.Name(), spec.Name, err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", sys.Cfg.Name(), spec.Name, err)
	}
	return res
}

// abandonMidRun starts a replay of spec on sys and stops it halfway through
// its requests, leaving misses in the MSHRs, messages in the network,
// and transactions at the memory controllers — the state of a cell whose
// context was canceled.
func abandonMidRun(t *testing.T, sys *System, spec traffic.Spec, requests int) {
	t.Helper()
	buckets := MaterializeStream(spec, sys.Cfg.Clusters, requests, CellSeed(1, spec.Name))
	r, err := ReplayRunner(sys, spec.Name, buckets)
	if err != nil {
		t.Fatalf("ReplayRunner(%s, %s): %v", sys.Cfg.Name(), spec.Name, err)
	}
	for c := 0; c < sys.Cfg.Clusters; c++ {
		r.pump(c)
	}
	for sys.Completed() < requests/2 && sys.K.Step() {
	}
	if sys.K.Pending() == 0 {
		t.Fatalf("%s: replay drained before the cut", sys.Cfg.Name())
	}
}

// assertPristine checks the state a fresh System starts with and a Reset
// must restore but a probe cell may not expose: empty hub MSHRs and
// injection queues, no parked transactions or deliveries, idle controllers.
func assertPristine(t *testing.T, sys *System) {
	t.Helper()
	if sys.K.Now() != 0 || sys.K.Pending() != 0 || sys.Completed() != 0 {
		t.Fatalf("kernel/system not at time zero: now=%d pending=%d completed=%d",
			sys.K.Now(), sys.K.Pending(), sys.Completed())
	}
	if n, m := sys.txnSlots.Len(), sys.msgSlots.Len(); n != 0 || m != 0 {
		t.Fatalf("%d transactions and %d held deliveries survived Reset", n, m)
	}
	for _, h := range sys.hubs {
		if h.mshr.Len() != 0 {
			t.Fatalf("hub %d: %d MSHR entries survived Reset", h.id, h.mshr.Len())
		}
		for dst := range h.outq {
			if !h.outq[dst].Empty() || h.outArmed[dst] {
				t.Fatalf("hub %d: injection queue to %d survived Reset", h.id, dst)
			}
		}
	}
	for i, mc := range sys.MCs {
		if mc.QueueLen() != 0 || mc.Served != 0 {
			t.Fatalf("controller %d: queue %d, served %d after Reset", i, mc.QueueLen(), mc.Served)
		}
	}
}

// TestSystemResetMatchesFresh pins the machine-pooling contract the sweep
// engine relies on: a System that ran a cell and was Reset must run the next
// cell field-identically to a freshly built System. It covers every
// registered fabric (each implements noc.Resetter) under both memory
// interconnects. The machine is dirtied twice — one completed cell, then
// one abandoned mid-run — with workloads other than the probe's, so any
// state Reset misses shows up as a diverging Result.
func TestSystemResetMatchesFresh(t *testing.T) {
	const requests = 600
	configs := append(config.Combos(), config.Custom("", "swmr", config.OCM, nil))
	workloads := AllWorkloads()
	dirtySpec, probeSpec := workloads[1], workloads[6] // HotSpot, then a SPLASH-2 model
	for _, cfg := range configs {
		t.Run(cfg.Name(), func(t *testing.T) {
			pooled := mustSystem(t, cfg)
			if _, ok := pooled.Net.(noc.Resetter); !ok {
				t.Fatalf("fabric %q does not implement noc.Resetter", cfg.Fabric)
			}
			replayCell(t, pooled, dirtySpec, requests)
			if err := pooled.Reset(); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			abandonMidRun(t, pooled, dirtySpec, requests)
			if err := pooled.Reset(); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			assertPristine(t, pooled)
			got := replayCell(t, pooled, probeSpec, requests)
			want := replayCell(t, mustSystem(t, cfg), probeSpec, requests)
			if got != want {
				t.Fatalf("reset machine diverges from a fresh one on %s:\nreset: %+v\nfresh: %+v",
					probeSpec.Name, got, want)
			}
		})
	}
}
