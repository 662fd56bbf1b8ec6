package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it; the test in
// metrics_test.go keeps these tables and BENCHMARK.json identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"allocs_per_cell", "allocs", "lower", 0.05},
	{"max_rss_mb", "MiB", "lower", 0.15},
	{"campaign_p50_ms", "ms", "lower", 0.25},
	{"campaign_p90_ms", "ms", "lower", 0.25},
	{"first_cell_p50_ms", "ms", "lower", 0.25},
}

// perLayer is what a traced run prints, on every workload; a layer the
// workload does not reach reads 0. Work counts and times are per campaign.
var perLayer = []metricDef{
	{"sim.kernel.events", "count", "lower", 0},
	{"sim.kernel.ns_per_event", "ns", "lower", 0},
	{"mesh.msgs", "count", "lower", 0},
	{"mesh.hops", "count", "lower", 0},
	{"mesh.run_s", "s", "lower", 0},
	{"mesh.ns_per_msg", "ns", "lower", 0},
	{"xbar.msgs", "count", "lower", 0},
	{"xbar.run_s", "s", "lower", 0},
	{"xbar.ns_per_msg", "ns", "lower", 0},
	{"swmr.msgs", "count", "lower", 0},
	{"swmr.run_s", "s", "lower", 0},
	{"swmr.ns_per_msg", "ns", "lower", 0},
	{"memory.ocm.ns_per_req", "ns", "lower", 0},
	{"memory.ecm.ns_per_req", "ns", "lower", 0},
	{"core.materialize.calls", "count", "lower", 0},
	{"core.materialize.busy_ms", "ms", "lower", 0},
	{"core.new_system.calls", "count", "lower", 0},
	{"core.new_system.busy_ms", "ms", "lower", 0},
	{"core.reset.calls", "count", "lower", 0},
	{"core.reset.busy_ms", "ms", "lower", 0},
	{"core.run.busy_s", "s", "lower", 0},
	{"core.parse_scenario.us", "us", "lower", 0},
	{"store.append_cell.count", "count", "lower", 0},
	{"store.append_cell.p50_us", "us", "lower", 0},
	{"store.append_cell.p99_us", "us", "lower", 0},
	{"server.submit.p50_ms", "ms", "lower", 0},
	{"server.first_cell.p50_ms", "ms", "lower", 0},
	{"server.stream.p50_ms", "ms", "lower", 0},
	{"server.encode_cell.us", "us", "lower", 0},
	{"server.fleet.shards", "1/campaign", "lower", 0},
	{"server.fleet.retries", "1/campaign", "lower", 0},
	{"server.fleet.speculations", "1/campaign", "lower", 0},
	{"server.fleet.useful_ratio", "ratio", "higher", 0},
	{"server.fleet.overhead_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult pairs measured values with their declared units. It refuses a
// value set that is not exactly the declared one, or a value that is not a
// finite number, so a run never prints a metric BENCHMARK.json lacks.
func newResult(t tally, values map[string]float64, defs []metricDef) (result, error) {
	r := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return r, fmt.Errorf("undeclared metrics measured: %s", strings.Join(extra, ", "))
	}
	return r, nil
}

func (r result) line() string {
	b, _ := json.Marshal(r) // finite floats and strings always marshal
	return string(b)
}
