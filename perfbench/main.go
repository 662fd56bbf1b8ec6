// Command perfbench is the repository's benchmark: one in-process harness
// that drives the public APIs of internal/core, internal/server and
// internal/store over loopback, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// as the last line of standard output. README.md in this directory
// describes the workloads, metrics and method.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// simWorkers is the simulation worker count for the sweeps: the load is
// fixed rather than scaled to the host, so runs on different hosts measure
// the same thing.
const simWorkers = 2

// buildDir holds everything a run leaves behind, relative to the checkout
// root the benchmark runs from.
const buildDir = ".bench_build"

// workload is one input set the benchmark runs. scenario renders the
// workload's JSON scenario for a seed; the program receives nothing else.
// BENCHMARK.json and README.md record why each workload exists.
type workload struct {
	name     string
	serve    bool // campaigns go through a fleet over HTTP, not core.Client
	scenario func(seed uint64) []byte
}

var presets6 = `{"preset": "LMesh/ECM"}, {"preset": "HMesh/ECM"}, {"preset": "LMesh/OCM"},
	{"preset": "HMesh/OCM"}, {"preset": "XBar/OCM"}, {"preset": "SWMR/OCM"}`

var workloads = []workload{
	{name: "paper-matrix", scenario: func(seed uint64) []byte {
		return fmt.Appendf(nil, `{"configs": [%s], "requests": 4000, "seed": %d}`, presets6, seed)
	}},
	{name: "photonic-only", scenario: func(seed uint64) []byte {
		return fmt.Appendf(nil, `{"configs": [{"preset": "XBar/OCM"}, {"preset": "SWMR/OCM"}],
			"requests": 20000, "seed": %d}`, seed)
	}},
	{name: "serve-fleet", serve: true, scenario: func(seed uint64) []byte {
		return fmt.Appendf(nil, `{"configs": [{"preset": "XBar/OCM"}, {"preset": "HMesh/ECM"}],
			"requests": 128, "seed": %d}`, seed)
	}},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runLimit bounds a whole run; past it the process exits non-zero without
// a result rather than overrun its budget.
const runLimit = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "paper-matrix", "workload: paper-matrix, photonic-only or serve-fleet")
	seed := fs.Uint64("seed", ref.DefaultSeed, "workload seed")
	seconds := fs.Int("seconds", 20, "measuring window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}

	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit-10*time.Second)
	defer cancel()

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(buildDir, "perfbench-run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	r := &runner{w: *w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		ref: ref, scratch: scratch, out: stdout}
	fmt.Fprintf(stdout, "perfbench %s seed=%d (default %d, held-out %d) seconds=%d trace=%d\n",
		w.name, *seed, ref.DefaultSeed, ref.HeldOutSeed, *seconds, *traced)
	fmt.Fprintf(stdout, "env: num_cpu=%d GOMAXPROCS=%d go=%s journal_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(scratch))

	var (
		values map[string]float64
		defs   = endToEnd
	)
	switch {
	case *traced == 1:
		defs = perLayer
		var spans []span
		values, spans, err = r.traced(ctx)
		if err == nil {
			var path string
			path, err = writeSpans(filepath.Join(buildDir, "perfbench-spans"),
				fmt.Sprintf("%s-seed%d.ndjson", w.name, *seed), spans)
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), path)
		}
	default:
		values, err = r.untraced(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range r.tally.notes {
		fmt.Fprintln(stdout, "MISMATCH:", n)
	}
	res, err := newResult(r.tally, values, defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, res.line())
	if !res.Correct {
		return 1
	}
	return 0
}

// runner carries one run's inputs and its correctness tally.
type runner struct {
	w       workload
	seed    uint64
	window  time.Duration
	ref     reference
	scratch string
	out     io.Writer
	tally   tally
}

func (r *runner) untraced(ctx context.Context) (map[string]float64, error) {
	if r.w.serve {
		return r.serveUntraced(ctx)
	}
	return r.sweepUntraced(ctx)
}

func (r *runner) traced(ctx context.Context) (map[string]float64, []span, error) {
	if r.w.serve {
		return r.serveTraced(ctx)
	}
	return r.sweepTraced(ctx)
}

// checkDigest compares a default-seed run's cells with the recorded digest.
func (r *runner) checkDigest(d string) {
	fmt.Fprintf(r.out, "digest: %s\n", d)
	if r.seed != r.ref.DefaultSeed {
		return
	}
	want, ok := r.ref.Digests[r.w.name]
	switch {
	case !ok:
		r.tally.fail(1, "no reference digest recorded for %s", r.w.name)
	case want != d:
		r.tally.fail(1, "digest %s differs from the reference %s", d, want)
	default:
		r.tally.attempted++
	}
}

var errNoCampaign = errors.New("no campaign completed inside the run's time limit")
