package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"corona/internal/core"
	"corona/internal/server"
	"corona/internal/store"
)

// fleetWorkers is the number of worker daemons behind the coordinator.
const fleetWorkers = 2

// fleetClients is the number of closed-loop clients on serve-fleet. One
// client's campaign already keeps both workers busy, one shard each. With
// two, the clients' campaigns settle either into taking turns on the
// workers or into colliding on them, and which one a run falls into moves
// every latency figure by about a fifth.
const fleetClients = 1

// fleetSetupReps is how many fleets a serve-fleet run starts and stops;
// setup_s is the median of their set-up times.
const fleetSetupReps = 40

// warmupShare sets the closed loop's warm-up, which runs before the timed
// window on the same fleet, to window/warmupShare: connections, the heap
// and the journal's compaction cycle are in their steady state when timing
// starts. Warm-up campaigns are checked like the timed ones.
const warmupShare = 10

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// node is one in-process daemon on its own loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed once Serve has returned
}

func startNode(opts server.Options) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(opts)
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return n, nil
}

func (n *node) stop() {
	n.hs.Close()
	<-n.done
	n.srv.Close()
}

// fleet is a coordinator journaling to a real store.Open journal (default
// options, so every append is fsync'd) in front of fleetWorkers worker
// daemons with one simulation worker each; everything else takes
// corona-serve's defaults.
type fleet struct {
	st      *store.Store
	workers []*node
	coord   *node
}

func startFleet(ctx context.Context, dir string) (*fleet, error) {
	st, err := store.Open(dir, store.Options{Logger: quiet})
	if err != nil {
		return nil, err
	}
	f := &fleet{st: st}
	var peers []*server.Client
	for i := 0; i < fleetWorkers; i++ {
		w, err := startNode(server.Options{Client: core.NewClient(core.WithWorkers(1)), Logger: quiet})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		peers = append(peers, server.NewClient(w.url))
	}
	if f.coord, err = startNode(server.Options{Peers: peers, Store: st, Logger: quiet}); err != nil {
		f.stop()
		return nil, err
	}
	for _, n := range append([]*node{f.coord}, f.workers...) {
		if err := waitHealthy(ctx, server.NewClient(n.url)); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func waitHealthy(ctx context.Context, c *server.Client) error {
	for {
		v, err := c.Health(ctx)
		if err == nil && v.Status == "ok" && (v.Store == "ok" || v.Store == "disabled") {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became healthy: %v", c.BaseURL(), err)
		case <-time.After(time.Millisecond):
		}
	}
}

func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.stop()
	}
	for _, w := range f.workers {
		w.stop()
	}
	f.st.Close()
}

// campaign submits the scenario to c and follows its NDJSON stream to the
// last cell, returning the index-sorted cells, when it was submitted, and
// when the first and last lines arrived.
func campaign(ctx context.Context, c *server.Client, scenario []byte, tr *tracer, req string) (cells []core.CellResult, start, first, last time.Time, err error) {
	root := tr.begin("server.campaign", 0, req, -1, "")
	defer tr.end(root)
	start = time.Now()
	id := tr.begin("server.submit", root, req, -1, "")
	v, err := c.Submit(ctx, scenario)
	tr.end(id)
	if err != nil {
		return nil, start, first, last, fmt.Errorf("submit: %w", err)
	}
	id = tr.begin("server.stream", root, req, -1, "")
	err = c.Stream(ctx, v.ID, func(cell core.CellResult) error {
		last = time.Now()
		if first.IsZero() {
			first = last
		}
		cells = append(cells, cell)
		return nil
	})
	tr.end(id)
	if !first.IsZero() {
		tr.record("server.first_cell", root, req, start, first)
	}
	if err != nil {
		return nil, start, first, last, fmt.Errorf("stream: %w", err)
	}
	sortCells(cells)
	return cells, start, first, last, nil
}

// closedLoop runs fleetClients clients against c. Each submits a campaign,
// reads its stream to the last cell, and only then submits the next, until
// the window has passed (at least one campaign each); campaigns in flight
// at that moment finish. Every campaign is checked against want. It
// returns the campaigns, in the order they finished, the wall time until
// the last client finished, and the heap allocations made.
func (r *runner) closedLoop(ctx context.Context, c *server.Client, scenario []byte, want []core.CellResult, window time.Duration, tr *tracer, label string) (campaignStats, time.Duration, uint64) {
	var (
		all     campaignStats
		mu      sync.Mutex // guards all and prev, so samples are in completion order
		prev    time.Time  // when the latest campaign so far finished
		tallies = make([]tally, fleetClients)
		wg      sync.WaitGroup
	)
	m0 := mallocs()
	start := time.Now()
	prev = start
	for k := 0; k < fleetClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for n := 0; (n == 0 || time.Since(start) < window) && ctx.Err() == nil; n++ {
				req := fmt.Sprintf("%s-%d-%d", label, k, n)
				cells, t0, first, last, err := campaign(ctx, c, scenario, tr, req)
				if err != nil {
					tallies[k].fail(len(want), "campaign %s: %v", req, err)
					continue
				}
				mu.Lock()
				// A campaign accounts for the time since the one before it
				// finished, so the busy times add up to the window.
				busy := max(last.Sub(prev), 0)
				if busy > 0 {
					prev = last
				}
				all.add(cells, busy, t0, first, last)
				mu.Unlock()
				tallies[k].cells("campaign "+req, cells, want)
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	allocs := mallocs() - m0
	for k := range tallies {
		r.tally.attempted += tallies[k].attempted
		r.tally.failed += tallies[k].failed
		r.tally.notes = append(r.tally.notes, tallies[k].notes...)
	}
	return all, wall, allocs
}

// startFleets starts n fleets one after another, each on a fresh journal,
// stopping each before it starts the next. It returns their set-up times
// and the last fleet, still running.
func (r *runner) startFleets(ctx context.Context, n int, tag string) ([]float64, *fleet, error) {
	var (
		f     *fleet
		setup []float64
	)
	for i := 0; i < n; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(ctx, filepath.Join(r.scratch, fmt.Sprintf("journal-%s%d", tag, i))); err != nil {
			return nil, nil, fmt.Errorf("fleet setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	return setup, f, nil
}

// serveReference is the in-process sweep of the campaign's scenario that
// every streamed campaign must reproduce.
func serveReference(ctx context.Context, scenario []byte) (*core.Scenario, []core.CellResult, error) {
	sc, err := core.ParseScenario(scenario)
	if err != nil {
		return nil, nil, err
	}
	_, cells, _, _, err := submitSweep(ctx, core.NewClient(core.WithWorkers(simWorkers)), sc)
	if err != nil {
		return nil, nil, fmt.Errorf("in-process reference sweep: %w", err)
	}
	return sc, cells, nil
}

func (r *runner) serveUntraced(ctx context.Context) (map[string]float64, error) {
	data := r.w.scenario(r.seed)
	// Half the set-ups run before the window and half after it, so a slow
	// stretch of the host at one end moves at most half the samples.
	setup, f, err := r.startFleets(ctx, fleetSetupReps/2, "a")
	if err != nil {
		return nil, err
	}
	defer f.stop()
	_, want, err := serveReference(ctx, data)
	if err != nil {
		return nil, err
	}
	coord := server.NewClient(f.coord.url)
	r.closedLoop(ctx, coord, data, want, r.window/warmupShare, nil, "w")
	stats, _, allocs := r.closedLoop(ctx, coord, data, want, r.window, nil, "c")
	if len(stats.latencyMs) == 0 {
		return nil, errNoCampaign
	}
	more, last, err := r.startFleets(ctx, fleetSetupReps-fleetSetupReps/2, "b")
	if err != nil {
		return nil, err
	}
	last.stop()
	values := endToEndValues(append(setup, more...), stats, allocs)
	seq, err := decompose(ctx, data, nil, nil, "check")
	if err != nil {
		return nil, fmt.Errorf("sequential decomposition: %w", err)
	}
	r.tally.cells("sequential decomposition", seq, want)
	r.checkDigest(digest(want))
	fmt.Fprintf(r.out, "samples: %d campaigns of %d cells from %d closed-loop client(s) after a %v warm-up, %d windows\n",
		len(stats.latencyMs), len(want), fleetClients, r.window/warmupShare, windows(len(stats.latencyMs)))
	return values, nil
}

// serveTraced measures serve-fleet's per-layer metrics: the closed loop
// runs untraced for half the window and with client-side spans for the
// other half, the fleet's counters are scraped from /metrics, a few
// campaigns go through the coordinator and straight to one worker in turn,
// and the campaign's core work is timed offline by the sequential
// decomposition sharded as the coordinator shards it.
func (r *runner) serveTraced(ctx context.Context) (map[string]float64, []span, error) {
	data := r.w.scenario(r.seed)
	f, err := startFleet(ctx, filepath.Join(r.scratch, "journal"))
	if err != nil {
		return nil, nil, fmt.Errorf("fleet setup: %w", err)
	}
	defer f.stop()
	sc, want, err := serveReference(ctx, data)
	if err != nil {
		return nil, nil, err
	}
	coord := server.NewClient(f.coord.url)
	r.closedLoop(ctx, coord, data, want, r.window/warmupShare, nil, "w")
	stats0, wall0, _ := r.closedLoop(ctx, coord, data, want, r.window/2, nil, "u")
	tr := newTracer()
	stats1, wall1, _ := r.closedLoop(ctx, coord, data, want, r.window/2, tr, "t")
	campaigns := len(stats0.latencyMs) + len(stats1.latencyMs)
	if len(stats0.latencyMs) == 0 || len(stats1.latencyMs) == 0 {
		return nil, nil, errNoCampaign
	}

	values := map[string]float64{}
	if err := r.scrapeFleet(ctx, f, campaigns, values); err != nil {
		return nil, nil, err
	}
	if values["server.fleet.overhead_ms"], err = r.fleetOverhead(ctx, f, data, want); err != nil {
		return nil, nil, err
	}
	shards := splitShards(len(want), fleetWorkers)
	_, _, decCampaigns, err := r.decomposeFor(ctx, data, shards, tr, time.Second, want)
	if err != nil {
		return nil, nil, err
	}
	r.checkDigest(digest(want))

	spans := tr.snapshot()
	common, err := r.commonLayers(sc, data, want, spans, decCampaigns)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range common {
		values[k] = v
	}
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e6)
	}
	values["server.submit.p50_ms"] = median(byName["server.submit"])
	values["server.first_cell.p50_ms"] = median(byName["server.first_cell"])
	values["server.stream.p50_ms"] = median(byName["server.stream"])
	values["store.append_cell.count"] = float64(len(want)) // the coordinator journals each merged cell
	values["trace.overhead_frac"] = 1 - (sum(stats1.cells)/wall1.Seconds())/(sum(stats0.cells)/wall0.Seconds())

	p50 := median(byName["server.campaign"])
	fmt.Fprintf(r.out, "samples: %d campaigns (%d traced) of %d cells, %d offline decompositions\n",
		campaigns, len(stats1.latencyMs), len(want), decCampaigns)
	// The shards run side by side on their workers, so the simulation on a
	// campaign's critical path is its slowest shard's.
	critical := slices.Max(shardRunS(spans, shards, decCampaigns))
	fmt.Fprintf(r.out, "property: the slowest shard's core.run.busy_s is %.1f%% of the traced campaign p50 %.2f ms (expected < 50%%); all shards' is %.1f%%\n",
		100*1e3*critical/p50, p50, 100*1e3*values["core.run.busy_s"]/p50)
	return values, spans, nil
}

// shardRunS is the Runner.Run self time, in seconds per campaign, of each
// shard's cells in the decomposition spans.
func shardRunS(spans []span, shards [][]int, campaigns int) []float64 {
	shardOf := map[int]int{}
	for k, shard := range shards {
		for _, i := range shard {
			shardOf[i] = k
		}
	}
	self := selfTimes(spans)
	out := make([]float64, len(shards))
	for i, s := range spans {
		if s.Name == "core.run" {
			out[shardOf[s.Cell]] += float64(self[i]) / 1e9 / float64(campaigns)
		}
	}
	return out
}

// splitShards splits the n cell indices into k contiguous near-equal runs,
// as the coordinator shards a campaign across its workers.
func splitShards(n, k int) [][]int {
	shards := make([][]int, 0, k)
	for s := 0; s < k; s++ {
		var shard []int
		for i := s * n / k; i < (s+1)*n/k; i++ {
			shard = append(shard, i)
		}
		shards = append(shards, shard)
	}
	return shards
}

// overheadPairs is how many campaigns fleetOverhead sends each way.
const overheadPairs = 10

// fleetOverhead sends the campaign alternately through the coordinator and
// straight to the first worker, one at a time, and returns the difference
// of the median campaign times in milliseconds.
func (r *runner) fleetOverhead(ctx context.Context, f *fleet, scenario []byte, want []core.CellResult) (float64, error) {
	targets := []*server.Client{server.NewClient(f.coord.url), server.NewClient(f.workers[0].url)}
	lat := [2][]float64{}
	for p := 0; p < overheadPairs; p++ {
		for t, c := range targets {
			cells, start, _, last, err := campaign(ctx, c, scenario, nil, "")
			if err != nil {
				return 0, fmt.Errorf("overhead campaign: %w", err)
			}
			r.tally.cells(fmt.Sprintf("overhead campaign %d/%d", p, t), cells, want)
			lat[t] = append(lat[t], ms(last.Sub(start)))
		}
	}
	return median(lat[0]) - median(lat[1]), nil
}

// scrapeFleet reads the coordinator's and workers' /metrics and sets the
// fleet counters per campaign and the useful-work ratio.
func (r *runner) scrapeFleet(ctx context.Context, f *fleet, campaigns int, values map[string]float64) error {
	coord, err := scrape(ctx, f.coord.url)
	if err != nil {
		return err
	}
	workerCells := 0.0
	for _, w := range f.workers {
		m, err := scrape(ctx, w.url)
		if err != nil {
			return err
		}
		workerCells += m["corona_cells_completed_total"]
	}
	per := float64(campaigns)
	values["server.fleet.shards"] = coord["corona_fleet_shards_dispatched_total"] / per
	values["server.fleet.retries"] = coord["corona_fleet_shard_retries_total"] / per
	values["server.fleet.speculations"] = coord["corona_fleet_speculations_total"] / per
	values["server.fleet.useful_ratio"] = coord["corona_cells_completed_total"] / workerCells
	return nil
}

// scrape fetches a Prometheus text page and sums each metric's series.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %q: %w", base, line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
