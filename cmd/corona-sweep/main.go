// Command corona-sweep runs an experiment matrix — by default the paper's
// five system configurations by fifteen workloads — and prints Figures 8,
// 9, 10, and 11 as tables, plus the headline geometric-mean speedups.
//
// Usage:
//
//	corona-sweep [-config scenario.json] [-requests N] [-seed S]
//	             [-workers W] [-cache DIR] [-fig 8|9|10|11|all] [-v]
//	             [-cpuprofile FILE] [-memprofile FILE] [-bench-out FILE.json]
//
// With -config, the matrix comes from a JSON scenario file instead: any
// set of machines (presets like "XBar/OCM" or declarative fabric + params
// descriptions, including fabrics such as the SWMR crossbar that are not
// among the paper's five) by any subset of the Table 3 workloads — new
// machines run without recompiling. Explicit -requests/-seed flags override
// the file's values. See examples/custom-fabric/scenario.json and
// docs/ARCHITECTURE.md for the schema.
//
// The matrix is submitted through the Client/Job API (docs/API.md): cells
// fan out over a bounded worker pool (GOMAXPROCS workers by default;
// -workers 1 forces the sequential debugging path) and stream back as they
// finish, which is what -v prints. Tables are bit-identical for any worker
// count — see docs/DETERMINISM.md. With -cache DIR, finished cells are
// persisted and later runs re-simulate only cells whose full configuration
// fingerprint changed.
//
// Ctrl-C (or SIGTERM) cancels the sweep gracefully: in-flight cells stop at
// their next kernel checkpoint, every already-finished cell's cache entry
// is durable (entries are written atomically as cells complete), and the
// command exits non-zero after reporting how far it got — re-run with the
// same -cache to resume from the completed cells.
//
// The paper ran 0.6M-240M requests per cell (Table 3); the default here is
// 20000, which reproduces the shapes in seconds on a multicore machine.
// Raise -requests for tighter numbers.
//
// -cpuprofile and -memprofile write pprof profiles of the sweep (CPU over the
// whole run, heap at exit) for inspection with `go tool pprof`; see
// docs/PERFORMANCE.md for the workflow. -bench-out writes a machine-readable
// JSON perf record (wall time, cells, kernel events, events/s, allocations)
// for tracking the simulator's performance trajectory across commits —
// BENCH_5.json at the repository root is a checked-in example.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"corona/internal/core"
)

func main() {
	os.Exit(run())
}

// run holds main's body so profile-writing defers always flush before the
// process exits (os.Exit in main would skip them).
func run() (code int) {
	configFile := flag.String("config", "", "JSON scenario file describing the configs x workloads matrix (default: the paper's 5x15)")
	requests := flag.Int("requests", 20000, "L2 misses simulated per (config, workload) cell")
	seed := flag.Uint64("seed", 42, "sweep base seed (per-workload seeds are derived from it)")
	workers := flag.Int("workers", 0, "worker pool size; 0 = GOMAXPROCS, 1 = sequential")
	cacheDir := flag.String("cache", "", "persist per-cell results in this directory and reuse them across runs")
	fig := flag.String("fig", "all", "which figure to print: 8, 9, 10, 11, or all")
	verbose := flag.Bool("v", false, "print per-cell progress")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the sweep")
	benchOut := flag.String("bench-out", "", "write a machine-readable perf record of the sweep to this JSON file")
	flag.Parse()

	// Ctrl-C / SIGTERM cancel the sweep's context; the engine drains, keeps
	// every completed cache entry, and we exit non-zero below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corona-sweep: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "corona-sweep: start CPU profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "corona-sweep: -memprofile: %v\n", err)
				code = 1
			}
		}()
	}

	var s *core.Sweep
	if *configFile != "" {
		sc, err := core.LoadScenario(*configFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corona-sweep: %v\n", err)
			return 2
		}
		// Explicit flags win over the file's values.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "requests":
				sc.Requests = *requests
			case "seed":
				sc.Seed = *seed
			}
		})
		s = sc.Sweep()
	} else {
		s = core.NewSweep(*requests, *seed)
	}

	client := core.NewClient(core.WithWorkers(*workers), core.WithCacheDir(*cacheDir))
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	job, err := client.Submit(ctx, s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corona-sweep: %v\n", err)
		return 2
	}
	total := len(s.Configs) * len(s.Workloads)
	done := 0
	for cell := range job.Results() {
		done++
		if *verbose {
			note := ""
			if cell.Cached {
				note = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "[%2d/%d] %s on %s%s\n", done, total, cell.Workload, cell.Config, note)
		}
	}
	if err := job.Wait(context.Background()); err != nil {
		var canceled *core.CanceledError
		if errors.As(err, &canceled) {
			fmt.Fprintf(os.Stderr, "corona-sweep: interrupted with %d of %d cells finished",
				canceled.Completed, canceled.Total)
			if *cacheDir != "" {
				fmt.Fprintf(os.Stderr, "; their results are cached in %s — re-run to resume from there", *cacheDir)
			} else {
				fmt.Fprint(os.Stderr, "; partial results discarded (use -cache to make interrupted sweeps resumable)")
			}
			fmt.Fprintln(os.Stderr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "corona-sweep: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "sweep of %d cells x %d requests took %v\n",
		total, s.Requests, elapsed.Round(time.Millisecond))
	// The perf record is a side channel: write it after the tables below, so
	// an unwritable -bench-out path can never discard a finished sweep's
	// primary output.
	defer func() {
		if *benchOut == "" {
			return
		}
		if err := writeBenchRecord(*benchOut, s, *workers, elapsed, memBefore); err != nil {
			fmt.Fprintf(os.Stderr, "corona-sweep: -bench-out: %v\n", err)
			code = 1
		}
	}()

	show := func(name, title string, tab fmt.Stringer) {
		if *fig != "all" && *fig != name {
			return
		}
		fmt.Printf("Figure %s: %s\n%s\n", name, title, tab)
	}
	show("8", "Normalized Speedup (over "+s.BaselineName()+")", s.Figure8())
	show("9", "Achieved Bandwidth (TB/s)", s.Figure9())
	show("10", "Average L2 Miss Latency (ns)", s.Figure10())
	show("11", "On-chip Network Power (W)", s.Figure11())

	// The headline geomean summary is defined over the paper's matrix
	// (synthetics rows 0-3, SPLASH rows 4-14, HMesh/XBar columns); custom
	// scenarios print tables only.
	if (*fig == "all" || *fig == "8") && *configFile == "" {
		if a, b := s.GeoMeanSummary(0, 4); a > 0 && b > 0 {
			fmt.Printf("Synthetic geomean speedups:  OCM over ECM (HMesh) = %.2f (paper: 3.28);"+
				"  XBar over HMesh (OCM) = %.2f (paper: 2.36)\n", a, b)
		}
		if a, b := s.GeoMeanSummary(4, 15); a > 0 && b > 0 {
			fmt.Printf("SPLASH-2 geomean speedups:   OCM over ECM (HMesh) = %.2f (paper: 1.80);"+
				"  XBar over HMesh (OCM) = %.2f (paper: 1.44)\n", a, b)
		}
	}
	return 0
}

// benchRecord is the machine-readable perf record -bench-out emits: enough
// to track the simulator's throughput and allocation trajectory across
// commits (BENCH_5.json in the repository root is one of these, produced at
// the PR that introduced the flag).
type benchRecord struct {
	Schema int `json:"schema"`
	// Shape of the run.
	Cells    int    `json:"cells"`
	Requests int    `json:"requests"`
	Workers  int    `json:"workers"`
	Seed     uint64 `json:"seed"`
	// Measured results.
	WallSeconds   float64 `json:"wall_seconds"`
	KernelEvents  uint64  `json:"kernel_events"`
	EventsPerSec  float64 `json:"events_per_sec"`
	Allocs        uint64  `json:"allocs"`
	AllocsPerCell float64 `json:"allocs_per_cell"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
}

// writeBenchRecord snapshots the finished sweep's performance into path.
func writeBenchRecord(path string, s *core.Sweep, workers int, elapsed time.Duration, before runtime.MemStats) error {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	var events uint64
	for _, row := range s.Results {
		for _, cell := range row {
			events += cell.KernelEvents
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cells := len(s.Configs) * len(s.Workloads)
	rec := benchRecord{
		Schema:       3, // 2 added a warmup field; 3 removed it
		Cells:        cells,
		Requests:     s.Requests,
		Workers:      workers,
		Seed:         s.Seed,
		WallSeconds:  elapsed.Seconds(),
		KernelEvents: events,
		Allocs:       after.Mallocs - before.Mallocs,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		rec.EventsPerSec = float64(events) / sec
	}
	if cells > 0 {
		rec.AllocsPerCell = float64(rec.Allocs) / float64(cells)
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeHeapProfile snapshots the heap (after a settling GC, so the profile
// shows retained allocation) into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("write heap profile: %w", err)
	}
	return f.Close()
}
