package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60), which overlap,
	// and c [90,120), which outlives it; a has one child [15,20).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "b", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - 50 - 10, // [10,60) and [90,100) are covered
		30 - 5,
		30,
		30,
		5,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s (id %d): self time %d, want %d", spans[i].Name, spans[i].ID, got[i], want[i])
		}
	}
}

func TestWindowed(t *testing.T) {
	// Four windows of 100 campaigns; the third is a stretch of host
	// contention at ten times the latency and a tenth of the rate.
	var xs, cells, secs []float64
	for w, scale := range []float64{1, 1, 10, 1} {
		for i := 0; i < campaignWindow; i++ {
			xs = append(xs, scale*float64(i+1)+float64(w))
			cells = append(cells, 30)
			secs = append(secs, scale*(0.01+0.01*float64(w)))
		}
	}
	orig := slices.Clone(xs)
	// Window p90s are 90.1, 91.1, 903 and 93.1; the lower quartile lies
	// between the first two.
	if got, want := windowedQuantile(xs, 0.9), 90.1+0.75; math.Abs(got-want) > 1e-9 {
		t.Errorf("windowed p90 %v, want %v", got, want)
	}
	if !slices.Equal(xs, orig) {
		t.Error("windowedQuantile reordered its input")
	}
	// Window rates are 3000, 1500, 100 and 750 cells/s; the upper quartile
	// lies between the two fastest.
	if got, want := windowedRate(cells, secs), 1500+0.25*1500; math.Abs(got-want) > 1e-6 {
		t.Errorf("windowed rate %v, want %v", got, want)
	}
	// Fewer than two windows' worth is the plain quantile and the plain rate.
	if got, want := windowedQuantile(xs[:150], 0.5), quantile(slices.Clone(xs[:150]), 0.5); got != want {
		t.Errorf("short run p50 %v, want %v", got, want)
	}
	if got, want := windowedRate(cells[:150], secs[:150]), 30*150/sum(secs[:150]); math.Abs(got-want) > 1e-6 {
		t.Errorf("short run rate %v, want %v", got, want)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPrintedMetricsMatchBenchmarkJSON runs the harness, untraced and
// traced, on miniature versions of a sweep and a serve workload, and checks
// that the metrics each run prints are exactly those BENCHMARK.json
// declares, with the declared units.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !slices.Equal(b.EndToEnd, endToEnd) || !slices.Equal(b.PerLayer, perLayer) {
		t.Fatalf("metric tables differ from BENCHMARK.json")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if !slices.Equal(names, ours) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", ours, names)
	}

	tiny := func(seed uint64) []byte {
		return []byte(`{"configs": [{"preset": "XBar/OCM"}, {"preset": "HMesh/ECM"}, {"preset": "SWMR/OCM"}],
			"workloads": ["Uniform", "FFT"], "requests": 128, "seed": 3}`)
	}
	for _, w := range []workload{{name: "mini-sweep", scenario: tiny}, {name: "mini-serve", serve: true, scenario: tiny}} {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res := runMini(t, w, traced)
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			printed := map[string]string{}
			line := res.line()
			var parsed result
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatalf("%s: printed line is not JSON: %v", w.name, err)
			}
			for name, v := range parsed.Metrics {
				printed[name] = v.Unit
			}
			for _, d := range defs {
				if u, ok := printed[d.Name]; !ok || u != d.Unit {
					t.Errorf("%s traced=%v: %s printed with unit %q, BENCHMARK.json says %q", w.name, traced, d.Name, u, d.Unit)
				}
				delete(printed, d.Name)
			}
			for name := range printed {
				t.Errorf("%s traced=%v: printed %s, which BENCHMARK.json does not declare", w.name, traced, name)
			}
		}
	}
}

func runMini(t *testing.T, w workload, traced bool) result {
	t.Helper()
	dir := t.TempDir()
	r := &runner{w: w, seed: 3, window: time.Millisecond, ref: reference{DefaultSeed: 1},
		scratch: dir, out: io.Discard}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var (
		values map[string]float64
		err    error
		defs   = endToEnd
	)
	if traced {
		defs = perLayer
		values, _, err = r.traced(ctx)
	} else {
		values, err = r.untraced(ctx)
	}
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	res, err := newResult(r.tally, values, defs)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	return res
}
