package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"corona/internal/config"
	"corona/internal/faultinject"
	"corona/internal/noc"
	"corona/internal/splash"
	"corona/internal/stats"
	"corona/internal/trace"
	"corona/internal/traffic"
)

// Sweep runs every workload on every configuration. NewSweep prepares the
// paper's 5x15 matrix behind Figures 8-11; NewMatrixSweep accepts any
// configs x workloads matrix — six machines, one machine at twenty
// parameter points, or anything a JSON scenario (LoadScenario) describes —
// with the same engine, determinism guarantee, and on-disk cache.
type Sweep struct {
	Configs   []config.System
	Workloads []traffic.Spec
	// Requests per run (the paper's Table 3 counts are scaled down by the
	// caller for tractable wall-clock time; shapes are stable well below the
	// paper's 10^6).
	Requests int
	Seed     uint64

	// Results[w][c] is the run of Workloads[w] on Configs[c].
	Results [][]Result
}

// AllWorkloads returns the paper's 15 workloads: 4 synthetics then 11
// SPLASH-2 models, in figure order.
func AllWorkloads() []traffic.Spec {
	specs := traffic.Synthetic()
	specs = append(specs, splash.Specs()...)
	return specs
}

// NewSweep prepares the paper's full 5-configuration x 15-workload matrix.
func NewSweep(requests int, seed uint64) *Sweep {
	return NewMatrixSweep(config.Combos(), AllWorkloads(), requests, seed)
}

// NewMatrixSweep prepares an arbitrary configs x workloads matrix. The
// first configuration whose Name is "LMesh/ECM" is the speedup baseline;
// when absent, the first configuration is (so order configs baseline-first
// for custom matrices).
func NewMatrixSweep(configs []config.System, workloads []traffic.Spec, requests int, seed uint64) *Sweep {
	return &Sweep{
		Configs:   configs,
		Workloads: workloads,
		Requests:  requests,
		Seed:      seed,
	}
}

// Progress describes one completed cell of a running sweep. Callbacks are
// serialized by the engine and arrive with Done strictly increasing, so a
// consumer can render "Done/Total" without its own locking, regardless of
// how many workers are simulating.
type Progress struct {
	Done, Total int    // cells finished so far (including this one) / cells this run executes (the matrix, or the Subset size)
	Workload    string // the cell that just finished
	Config      string
	Cached      bool // satisfied from the on-disk cache, not simulated
}

// CellResult is one completed sweep cell as delivered to a streaming
// consumer (Job.Results, the server's NDJSON endpoint): the cell's position
// in the matrix, whether it came from the cache, and the full Result. Cells
// arrive in completion order, not matrix order — Index places them.
type CellResult struct {
	// Index is the cell's linear position, Row*len(Configs)+Col.
	Index int `json:"index"`
	// Row and Col index Sweep.Workloads and Sweep.Configs respectively.
	Row int `json:"row"`
	Col int `json:"col"`

	Workload string `json:"workload"`
	Config   string `json:"config"`
	// Cached marks a cell satisfied from the on-disk cache, not simulated.
	Cached bool   `json:"cached"`
	Result Result `json:"result"`
}

// runConfig collects the sweep-execution options.
type runConfig struct {
	workers     int
	cacheDir    string
	progress    func(Progress)
	onCell      func(CellResult)
	precomputed map[int]Result
	subset      []int
}

// Option configures one Sweep.Run invocation.
type Option func(*runConfig)

// Workers bounds the sweep's worker pool. n <= 0 selects GOMAXPROCS (the
// default); Workers(1) is the sequential debugging path and the reference
// against which parallel determinism is asserted.
func Workers(n int) Option { return func(rc *runConfig) { rc.workers = n } }

// CacheDir enables the on-disk result cache rooted at dir: cells whose
// (config, workload, requests, seed) key already has a valid entry are
// loaded instead of simulated, so re-runs only pay for invalidated cells.
// An empty dir (the default) disables caching.
func CacheDir(dir string) Option { return func(rc *runConfig) { rc.cacheDir = dir } }

// OnProgress registers a callback invoked after each cell completes. The
// engine serializes invocations, so fn needs no locking of its own.
func OnProgress(fn func(Progress)) Option { return func(rc *runConfig) { rc.progress = fn } }

// Precomputed seeds the run with cells that are already known, keyed by
// linear index (Row*len(Configs)+Col). Those cells skip simulation entirely
// and surface through Results/OnProgress/onCell with Cached=true, exactly
// like an on-disk cache hit — the resume path corona-serve uses to re-run
// only the cells a crashed campaign had not durably recorded. Deterministic
// seeding (CellSeed) guarantees the freshly simulated remainder is
// byte-identical to what an uninterrupted run would have produced.
func Precomputed(cells map[int]Result) Option {
	return func(rc *runConfig) { rc.precomputed = cells }
}

// Subset restricts the run to the given linear cell indices
// (Row*len(Configs)+Col): only those cells simulate, fill Results, and
// surface through OnProgress/onCell — the shard-subset entry a fleet worker
// executes when a coordinator hands it one slice of a campaign's matrix.
// Because every cell is independent and self-seeded (CellSeed), a subset
// cell's Result is byte-identical to the same cell of a full run, at any
// worker count — which is what lets a coordinator scatter a matrix across
// nodes and merge the shards back into a single-node-identical stream.
// Indices out of range, duplicated, or an explicitly empty set are rejected
// with a *ConfigError before anything simulates. A nil subset (the default)
// runs the whole matrix.
func Subset(indices []int) Option {
	return func(rc *runConfig) { rc.subset = indices }
}

// onCell registers the streaming-consumer callback (Job.Results). Like
// OnProgress it is serialized by the engine; unlike OnProgress it carries
// the full Result, so a consumer can render cells as shards finish instead
// of waiting for the matrix barrier.
func onCell(fn func(CellResult)) Option { return func(rc *runConfig) { rc.onCell = fn } }

// rowStreams coordinates one sweep row's shared traffic: the workload's
// miss stream is materialized once (lazily, by the first cell of the row
// that actually simulates) and replayed read-only by every configuration in
// the row — the paper's own methodology, which replays one captured miss
// stream against many interconnects, and the reason CellSeed derives seeds
// from the workload alone. Rows whose configurations disagree on cluster
// count (possible in custom scenarios) materialize one stream per distinct
// count, since the streams genuinely differ. The buffer is dropped once the
// last cell of the row has finished, bounding a sweep's resident streams to
// roughly the rows its workers currently occupy.
type rowStreams struct {
	mu         sync.Mutex
	byClusters map[int][][]trace.Record
	remaining  int
}

// acquire returns the row's materialized stream for a machine of `clusters`
// endpoints, generating it on first use. Concurrent cells of the row block
// here rather than duplicate the generation work.
func (r *rowStreams) acquire(spec traffic.Spec, clusters, requests int, seed uint64) [][]trace.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byClusters[clusters]; ok {
		return s
	}
	if r.byClusters == nil {
		r.byClusters = make(map[int][][]trace.Record)
	}
	s := MaterializeStream(spec, clusters, requests, seed)
	r.byClusters[clusters] = s
	return s
}

// release records one finished cell; the last one frees the row's streams.
func (r *rowStreams) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.remaining--; r.remaining == 0 {
		r.byClusters = nil
	}
}

// systemPool recycles built machines across a sweep's cells, one free list
// per configuration column. A column's systems are structurally identical, so
// get pops one and Resets it to construction state (falling back to a fresh
// build if the fabric cannot reset in place); put parks only systems whose
// fabric supports reset. Pooling kills the per-cell construction garbage that
// previously dominated sweep allocation.
type systemPool struct {
	mu   sync.Mutex
	free [][]*System
}

func newSystemPool(columns int) *systemPool {
	return &systemPool{free: make([][]*System, columns)}
}

func (p *systemPool) get(col int, cfg config.System) (*System, error) {
	p.mu.Lock()
	var sys *System
	if n := len(p.free[col]); n > 0 {
		sys = p.free[col][n-1]
		p.free[col][n-1] = nil
		p.free[col] = p.free[col][:n-1]
	}
	p.mu.Unlock()
	if sys != nil && sys.Reset() == nil {
		return sys, nil
	}
	return NewSystem(cfg)
}

func (p *systemPool) put(col int, sys *System) {
	if sys == nil {
		return
	}
	if _, ok := sys.Net.(noc.Resetter); !ok {
		return
	}
	p.mu.Lock()
	p.free[col] = append(p.free[col], sys)
	p.mu.Unlock()
}

// runCellSafe wraps runCell in a panic barrier and the chaos suite's cell
// fault point. A panic anywhere in the cell's simulation — a model bug or an
// injected fault — becomes a *PanicError that fails
// this sweep only: the worker pool, the process, and (behind corona-serve)
// every other job keep running.
func (s *Sweep) runCellSafe(ctx context.Context, cfg config.System, spec traffic.Spec, row *rowStreams, seed uint64, pool *systemPool, col int) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Fire("core.cell.run"); err != nil {
		return Result{}, err
	}
	return s.runCell(ctx, cfg, spec, row, seed, pool, col)
}

// runCell simulates one sweep cell by replaying the row's shared stream on a
// pooled (or freshly built) machine.
func (s *Sweep) runCell(ctx context.Context, cfg config.System, spec traffic.Spec, row *rowStreams, seed uint64, pool *systemPool, col int) (Result, error) {
	sys, err := pool.get(col, cfg)
	if err != nil {
		return Result{}, err
	}
	defer pool.put(col, sys)
	buckets := row.acquire(spec, sys.Cfg.Clusters, s.Requests, seed)
	r, err := ReplayRunner(sys, spec.Name, buckets)
	if err != nil {
		return Result{}, err
	}
	return r.Run(ctx)
}

// Run executes the matrix on a bounded worker pool (GOMAXPROCS workers by
// default — pass Workers(1) for the sequential path). Each cell runs at a
// seed derived by CellSeed, so the filled Results grid is identical for
// every worker count and completion order; see docs/DETERMINISM.md. Cells
// in a row replay one shared, materialized traffic stream (rowStreams)
// instead of regenerating the workload per configuration.
//
// Invalid configurations are rejected up front with a *ConfigError, before
// any cell simulates. When ctx is canceled mid-sweep, in-flight cells stop
// at their next kernel checkpoint, the pool drains, and Run returns a
// *CanceledError recording how many cells completed; finished cells keep
// their Results entries and their (atomically written) cache entries, so a
// re-run with the same CacheDir completes the matrix from cache with
// byte-identical tables. Any other cell failure cancels the remaining cells
// and is returned as-is.
func (s *Sweep) Run(ctx context.Context, opts ...Option) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var rc runConfig
	for _, opt := range opts {
		opt(&rc)
	}
	if err := s.validate(); err != nil {
		return err
	}
	nc := len(s.Configs)
	total := nc * len(s.Workloads)
	order, err := subsetOrder(rc.subset, total)
	if err != nil {
		return err
	}
	s.Results = make([][]Result, len(s.Workloads))
	for w := range s.Workloads {
		s.Results[w] = make([]Result, nc)
	}

	cache := openCache(rc.cacheDir)
	pool := newSystemPool(nc)
	rows := make([]*rowStreams, len(s.Workloads))
	for w := range rows {
		rows[w] = &rowStreams{remaining: nc}
	}
	n := total
	if order != nil {
		// A subset run touches only its own cells: rows release their shared
		// stream once the subset's cells of that row finish, and rows with no
		// subset cells never materialize at all.
		n = len(order)
		for w := range rows {
			rows[w].remaining = 0
		}
		for _, i := range order {
			rows[i/nc].remaining++
		}
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex // serializes the callbacks and their counter
		done     int
		firstErr error
	)
	NewPool(rc.workers).Run(runCtx, n, func(k int) {
		i := k
		if order != nil {
			i = order[k]
		}
		w, c := i/nc, i%nc
		defer rows[w].release()
		cfg, spec := s.Configs[c], s.Workloads[w]
		seed := CellSeed(s.Seed, spec.Name)
		res, cached := rc.precomputed[i]
		if !cached {
			res, cached = cache.load(cfg, spec, s.Requests, seed)
		}
		if !cached {
			var err error
			res, err = s.runCellSafe(runCtx, cfg, spec, rows[w], seed, pool, c)
			if err != nil {
				mu.Lock()
				// Cancellations are either the outer ctx (reported below) or
				// fallout from an earlier failure — never the root cause.
				if firstErr == nil && !isCanceled(err) {
					firstErr = err
				}
				mu.Unlock()
				cancel()
				return
			}
			cache.store(cfg, spec, s.Requests, seed, res)
		}
		s.Results[w][c] = res
		mu.Lock()
		done++
		if rc.progress != nil {
			rc.progress(Progress{Done: done, Total: n,
				Workload: spec.Name, Config: cfg.Name(), Cached: cached})
		}
		if rc.onCell != nil {
			rc.onCell(CellResult{Index: i, Row: w, Col: c,
				Workload: spec.Name, Config: cfg.Name(), Cached: cached, Result: res})
		}
		mu.Unlock()
	})
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return &CanceledError{Completed: done, Total: n, Err: err}
	}
	return nil
}

// subsetOrder validates and canonicalizes a Subset option against the matrix
// size: a sorted copy of the indices for a subset run, nil for a full one.
// Out-of-range or duplicate indices — and an explicitly empty subset — are
// caller mistakes, rejected as *ConfigError before any cell simulates.
func subsetOrder(subset []int, total int) ([]int, error) {
	if subset == nil {
		return nil, nil
	}
	if len(subset) == 0 {
		return nil, &ConfigError{Name: "subset", Err: fmt.Errorf("core: Subset selects no cells")}
	}
	order := make([]int, len(subset))
	copy(order, subset)
	sort.Ints(order)
	for k, i := range order {
		if i < 0 || i >= total {
			return nil, &ConfigError{Name: "subset", Err: fmt.Errorf("core: Subset index %d outside the %d-cell matrix", i, total)}
		}
		if k > 0 && order[k-1] == i {
			return nil, &ConfigError{Name: "subset", Err: fmt.Errorf("core: Subset index %d duplicated", i)}
		}
	}
	return order, nil
}

// validate pre-flights the matrix: every configuration must resolve against
// the registry and the request count must be positive. It is the single
// rule set behind both Sweep.Run's up-front rejection and Client.Submit's
// synchronous one — the two can never diverge.
func (s *Sweep) validate() error {
	for _, cfg := range s.Configs {
		if err := cfg.Validate(); err != nil {
			return &ConfigError{Name: cfg.Name(), Err: err}
		}
	}
	if s.Requests <= 0 {
		return &ConfigError{Name: "sweep", Err: fmt.Errorf("core: requests per cell must be positive, got %d", s.Requests)}
	}
	return nil
}

// BaselineName returns the display name of the speedup-1 reference column.
func (s *Sweep) BaselineName() string { return s.Configs[s.baselineIndex()].Name() }

// baselineIndex locates LMesh/ECM, the speedup-1 reference, falling back
// to the first configuration for matrices without the paper's baseline.
func (s *Sweep) baselineIndex() int {
	for i, c := range s.Configs {
		if c.Name() == "LMesh/ECM" {
			return i
		}
	}
	return 0
}

func (s *Sweep) header() []string {
	h := []string{"Benchmark"}
	for _, c := range s.Configs {
		h = append(h, c.Name())
	}
	return h
}

func (s *Sweep) table(cell func(Result, Result) string) *stats.Table {
	t := stats.NewTable(s.header()...)
	base := s.baselineIndex()
	for w := range s.Workloads {
		row := []string{s.Workloads[w].Name}
		for c := range s.Configs {
			row = append(row, cell(s.Results[w][c], s.Results[w][base]))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure8 renders normalized speedup over LMesh/ECM.
func (s *Sweep) Figure8() *stats.Table {
	return s.table(func(r, base Result) string {
		return fmt.Sprintf("%.2f", r.Speedup(base))
	})
}

// Figure9 renders achieved memory bandwidth in TB/s.
func (s *Sweep) Figure9() *stats.Table {
	return s.table(func(r, _ Result) string {
		return fmt.Sprintf("%.2f", r.AchievedTBs)
	})
}

// Figure10 renders average L2 miss latency in ns.
func (s *Sweep) Figure10() *stats.Table {
	return s.table(func(r, _ Result) string {
		return fmt.Sprintf("%.0f", r.MeanLatencyNs)
	})
}

// Figure11 renders on-chip network power in watts.
func (s *Sweep) Figure11() *stats.Table {
	return s.table(func(r, _ Result) string {
		return fmt.Sprintf("%.1f", r.NetworkPowerW)
	})
}

// Speedups returns the per-workload speedups of configuration c over the
// baseline, in workload order.
func (s *Sweep) Speedups(c int) []float64 {
	base := s.baselineIndex()
	out := make([]float64, len(s.Workloads))
	for w := range s.Workloads {
		out[w] = s.Results[w][c].Speedup(s.Results[w][base])
	}
	return out
}

// configIndex finds a configuration by name, or -1.
func (s *Sweep) configIndex(name string) int {
	for i, c := range s.Configs {
		if c.Name() == name {
			return i
		}
	}
	return -1
}

// GeoMeanSummary computes the paper's two headline geometric means over a
// workload index range [lo, hi): the OCM-over-ECM gain on an HMesh, and the
// further crossbar-over-HMesh gain on OCM. The paper reports 3.28 and 2.36
// for the synthetics ([0,4)) and 1.80 and 1.44 for SPLASH-2 ([4,15)).
func (s *Sweep) GeoMeanSummary(lo, hi int) (ocmOverEcm, xbarOverHMesh float64) {
	he := s.configIndex("HMesh/ECM")
	ho := s.configIndex("HMesh/OCM")
	xo := s.configIndex("XBar/OCM")
	if he < 0 || ho < 0 || xo < 0 {
		return 0, 0
	}
	var a, b []float64
	for w := lo; w < hi && w < len(s.Workloads); w++ {
		a = append(a, s.Results[w][ho].Speedup(s.Results[w][he]))
		b = append(b, s.Results[w][xo].Speedup(s.Results[w][ho]))
	}
	return stats.GeoMean(a), stats.GeoMean(b)
}
