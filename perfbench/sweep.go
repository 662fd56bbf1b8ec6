package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"corona/internal/core"
)

// campaignStats accumulates closed-loop campaigns in the order they
// finished, one entry per campaign in each slice.
type campaignStats struct {
	cells, events      []float64
	busyS              []float64 // host seconds the campaign accounts for
	latencyMs, firstMs []float64
}

func (s *campaignStats) add(cells []core.CellResult, busy time.Duration, start, first, last time.Time) {
	var events uint64
	for _, c := range cells {
		events += c.Result.KernelEvents
	}
	s.cells = append(s.cells, float64(len(cells)))
	s.events = append(s.events, float64(events))
	s.busyS = append(s.busyS, busy.Seconds())
	s.latencyMs = append(s.latencyMs, ms(last.Sub(start)))
	s.firstMs = append(s.firstMs, ms(first.Sub(start)))
}

// endToEndValues turns a measuring window into the end-to-end metrics.
func endToEndValues(setup []float64, s campaignStats, allocs uint64) map[string]float64 {
	return map[string]float64{
		"setup_s":           median(setup),
		"cells_per_s":       windowedRate(s.cells, s.busyS),
		"events_per_s":      windowedRate(s.events, s.busyS),
		"allocs_per_cell":   float64(allocs) / sum(s.cells),
		"max_rss_mb":        maxRSSMiB(),
		"campaign_p50_ms":   windowedQuantile(s.latencyMs, 0.5),
		"campaign_p90_ms":   windowedQuantile(s.latencyMs, 0.9),
		"first_cell_p50_ms": windowedQuantile(s.firstMs, 0.5),
	}
}

// sweepSetup is what a researcher does before submitting a sweep: parse
// the scenario and build a client.
func sweepSetup(scenario []byte) (*core.Scenario, *core.Client, error) {
	sc, err := core.ParseScenario(scenario)
	if err != nil {
		return nil, nil, err
	}
	return sc, core.NewClient(core.WithWorkers(simWorkers)), nil
}

// submitSweep runs one campaign through Client.Submit, following its
// result stream, and returns the index-sorted cells with the time of the
// first and last cell.
func submitSweep(ctx context.Context, client *core.Client, sc *core.Scenario) (*core.Sweep, []core.CellResult, time.Time, time.Time, error) {
	sweep := sc.Sweep()
	job, err := client.Submit(ctx, sweep)
	if err != nil {
		return nil, nil, time.Time{}, time.Time{}, err
	}
	var first, last time.Time
	cells := make([]core.CellResult, 0, len(sc.Configs)*len(sc.Workloads))
	for c := range job.Results() {
		last = time.Now()
		if first.IsZero() {
			first = last
		}
		cells = append(cells, c)
	}
	if err := job.Wait(ctx); err != nil {
		return nil, nil, first, last, err
	}
	sortCells(cells)
	return sweep, cells, first, last, nil
}

// sweepUntraced sets up and submits the workload's matrix through
// core.Client with simWorkers workers, one campaign after another, until
// the window closes. Every campaign must reproduce the first; afterwards
// the sequential decomposition must too, and on the default seed the first
// campaign's digest must match the recorded one. Each campaign's set-up is
// timed on its own, so set-up samples spread over the whole window.
func (r *runner) sweepUntraced(ctx context.Context) (map[string]float64, error) {
	data := r.w.scenario(r.seed)
	var (
		stats   campaignStats
		setup   []float64
		allocs  uint64
		want    []core.CellResult
		refSwp  *core.Sweep
		sc      *core.Scenario
		started = time.Now()
	)
	for time.Since(started) < r.window || len(stats.latencyMs) == 0 {
		if ctx.Err() != nil {
			return nil, errNoCampaign
		}
		t0 := time.Now()
		var (
			client *core.Client
			err    error
		)
		if sc, client, err = sweepSetup(data); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		m0 := mallocs()
		t0 = time.Now()
		sweep, cells, first, last, err := submitSweep(ctx, client, sc)
		busy := time.Since(t0)
		allocs += mallocs() - m0
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", len(stats.latencyMs), err)
		}
		stats.add(cells, busy, t0, first, last)
		if want == nil {
			want, refSwp = cells, sweep
		}
		r.tally.cells(fmt.Sprintf("campaign %d", len(stats.latencyMs)), cells, want)
	}
	values := endToEndValues(setup, stats, allocs)

	seq, err := decompose(ctx, data, nil, nil, "check")
	if err != nil {
		return nil, fmt.Errorf("sequential decomposition: %w", err)
	}
	r.tally.cells("sequential decomposition", seq, want)
	r.checkDigest(digest(want))
	fmt.Fprintf(r.out, "samples: %d campaigns of %d cells, %d requests per cell\n",
		len(stats.latencyMs), len(want), sc.Requests)
	if r.w.name == "paper-matrix" {
		fidelity(r.out, refSwp)
	}
	return values, nil
}

// fidelity prints the simulated Figure 8 geometric means beside the
// paper's. They are deterministic outputs, not performance metrics.
func fidelity(out io.Writer, s *core.Sweep) {
	so, sx := s.GeoMeanSummary(0, 4)
	po, px := s.GeoMeanSummary(4, 15)
	fmt.Fprintf(out, "fidelity (simulated, deterministic; not a metric): Figure 8 geometric means at %d requests per cell\n", s.Requests)
	fmt.Fprintf(out, "  simulated caches and queues start empty in every cell; no warmup is excluded\n")
	rows := []struct {
		name       string
		sim, paper float64
	}{
		{"synthetic OCM/ECM (HMesh)", so, 3.28},
		{"synthetic XBar/HMesh (OCM)", sx, 2.36},
		{"SPLASH-2 OCM/ECM (HMesh)", po, 1.80},
		{"SPLASH-2 XBar/HMesh (OCM)", px, 1.44},
	}
	for _, row := range rows {
		fmt.Fprintf(out, "  %-28s simulated %5.2f  paper %4.2f  residual %+5.2f (%+5.1f%%)\n",
			row.name, row.sim, row.paper, row.sim-row.paper, 100*(row.sim-row.paper)/row.paper)
	}
}

// sweepTraced measures the per-layer metrics of a sweep workload. The
// sequential decomposition runs untraced for half the window and traced
// for the other half (their cell rates give the tracing overhead); the
// traced spans give each core layer's self time per campaign, and the
// isolated drives give the fabric, memory and kernel costs.
func (r *runner) sweepTraced(ctx context.Context) (map[string]float64, []span, error) {
	data := r.w.scenario(r.seed)
	sc, err := core.ParseScenario(data)
	if err != nil {
		return nil, nil, err
	}
	want, rate0, _, err := r.decomposeFor(ctx, data, nil, nil, r.window/2, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	_, rate1, campaigns, err := r.decomposeFor(ctx, data, nil, tr, r.window/2, want)
	if err != nil {
		return nil, nil, err
	}
	_, viaClient, _, _, err := submitSweep(ctx, core.NewClient(core.WithWorkers(simWorkers)), sc)
	if err != nil {
		return nil, nil, fmt.Errorf("Client.Submit: %w", err)
	}
	r.tally.cells("Client.Submit", viaClient, want)
	r.checkDigest(digest(want))

	spans := tr.snapshot()
	values, err := r.commonLayers(sc, data, want, spans, campaigns)
	if err != nil {
		return nil, nil, err
	}
	values["trace.overhead_frac"] = 1 - rate1/rate0
	values["store.append_cell.count"] = 0 // a library sweep journals nothing
	for _, m := range []string{"server.submit.p50_ms", "server.first_cell.p50_ms", "server.stream.p50_ms",
		"server.fleet.shards", "server.fleet.retries", "server.fleet.speculations",
		"server.fleet.useful_ratio", "server.fleet.overhead_ms"} {
		values[m] = 0 // no service on a library sweep
	}
	fmt.Fprintf(r.out, "samples: %d traced campaigns of %d cells\n", campaigns, len(want))
	run := values["core.run.busy_s"]
	switch r.w.name {
	case "paper-matrix":
		fmt.Fprintf(r.out, "property: mesh cells carry %.1f%% of core.run.busy_s (expected > 50%%)\n",
			100*values["mesh.run_s"]/run)
	case "photonic-only":
		fmt.Fprintf(r.out, "property: mesh.msgs=%g mesh.run_s=%g mesh.ns_per_msg=%g (expected all 0)\n",
			values["mesh.msgs"], values["mesh.run_s"], values["mesh.ns_per_msg"])
	}
	return values, spans, nil
}

// decomposeFor repeats the sequential decomposition, sharded as given,
// until at least `window` has passed, checking every campaign against want
// (the first campaign's cells when want is nil). It returns the reference
// cells, the cell rate, and the number of campaigns.
func (r *runner) decomposeFor(ctx context.Context, data []byte, shards [][]int, tr *tracer, window time.Duration, want []core.CellResult) ([]core.CellResult, float64, int, error) {
	start := time.Now()
	n, cells := 0, 0
	for n == 0 || time.Since(start) < window {
		got, err := decompose(ctx, data, shards, tr, fmt.Sprintf("c%d", n))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("sequential decomposition: %w", err)
		}
		if want == nil {
			want = got
		}
		r.tally.cells(fmt.Sprintf("sequential decomposition %d", n), got, want)
		n++
		cells += len(got)
	}
	return want, float64(cells) / time.Since(start).Seconds(), n, nil
}

// commonLayers computes the per-layer metrics every workload shares: the
// core layers' per-campaign work and self time from the decomposition
// spans, the simulated work counts of one campaign's cells, the isolated
// drives, the append latencies of the cells replayed into a journal, and
// the cell encoding.
func (r *runner) commonLayers(sc *core.Scenario, data []byte, cells []core.CellResult, spans []span, campaigns int) (map[string]float64, error) {
	values, err := layerDrives(sc)
	if err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	per := float64(campaigns)
	count := map[string]float64{}
	busy := map[string]float64{} // seconds
	for i, s := range spans {
		count[s.Name]++
		busy[s.Name] += float64(self[i]) / 1e9
		if s.Name == "core.run" {
			busy[fabricFamily(s.Fabric)+".run"] += float64(self[i]) / 1e9
		}
	}
	for _, l := range []string{"materialize", "new_system", "reset"} {
		values["core."+l+".calls"] = count["core."+l] / per
		values["core."+l+".busy_ms"] = 1e3 * busy["core."+l] / per
	}
	values["core.run.busy_s"] = busy["core.run"] / per
	for _, f := range []string{"mesh", "xbar", "swmr"} {
		values[f+".run_s"] = busy[f+".run"] / per
		values[f+".msgs"] = 0
	}
	values["mesh.hops"] = 0
	values["sim.kernel.events"] = 0
	for _, c := range cells {
		values["sim.kernel.events"] += float64(c.Result.KernelEvents)
		if f := fabricFamily(sc.Configs[c.Col].Fabric); f != "" {
			values[f+".msgs"] += float64(c.Result.NetMessages)
			if f == "mesh" {
				values["mesh.hops"] += float64(c.Result.HopTraversals)
			}
		}
	}
	if values["core.parse_scenario.us"], err = parseScenario(data); err != nil {
		return nil, err
	}
	lat, err := replayJournal(filepath.Join(r.scratch, "replay"), data, cells, 1000)
	if err != nil {
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	values["store.append_cell.p50_us"] = quantile(lat, 0.5)
	values["store.append_cell.p99_us"] = quantile(lat, 0.99)
	if values["server.encode_cell.us"], err = encodeCell(cells); err != nil {
		return nil, err
	}
	return values, nil
}
