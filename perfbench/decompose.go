package main

import (
	"context"
	"fmt"

	"corona/internal/core"
	"corona/internal/trace"
)

// decompose runs a campaign the way the sweep engine's warmup-off cell loop
// does, sequentially and through core's public functions only:
// ParseScenario, then per cell MaterializeStream on the row's first cell,
// NewSystem on a column's first use or System.Reset on reuse, ReplayRunner
// and Runner.Run. Each call is a span under one "campaign" span. shards
// lists the linear cell indices to run, one group per engine invocation: a
// group gets its own machines and row streams, as a fleet worker's shard
// sub-job does. nil runs the whole matrix as one group. Cells come back in
// index order, byte-identical to the engine's.
func decompose(ctx context.Context, scenario []byte, shards [][]int, tr *tracer, req string) ([]core.CellResult, error) {
	root := tr.begin("campaign", 0, req, -1, "")
	defer tr.end(root)
	id := tr.begin("core.parse_scenario", root, req, -1, "")
	sc, err := core.ParseScenario(scenario)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	nc := len(sc.Configs)
	if shards == nil {
		all := make([]int, nc*len(sc.Workloads))
		for i := range all {
			all[i] = i
		}
		shards = [][]int{all}
	}
	var cells []core.CellResult
	for _, shard := range shards {
		systems := make(map[int]*core.System)
		streams := make(map[int][][]trace.Record)
		for _, i := range shard {
			w, c := i/nc, i%nc
			cfg, spec := sc.Configs[c], sc.Workloads[w]
			cell := tr.begin("cell", root, req, i, cfg.Fabric)

			sys := systems[c]
			if sys != nil {
				id = tr.begin("core.reset", cell, req, i, cfg.Fabric)
				err = sys.Reset()
				tr.end(id)
			}
			if sys == nil || err != nil {
				id = tr.begin("core.new_system", cell, req, i, cfg.Fabric)
				sys, err = core.NewSystem(cfg)
				tr.end(id)
				if err != nil {
					return nil, err
				}
				systems[c] = sys
			}

			buckets, ok := streams[w]
			if !ok {
				id = tr.begin("core.materialize", cell, req, i, cfg.Fabric)
				buckets = core.MaterializeStream(spec, sys.Cfg.Clusters, sc.Requests, core.CellSeed(sc.Seed, spec.Name))
				tr.end(id)
				streams[w] = buckets
			}

			id = tr.begin("core.replay_runner", cell, req, i, cfg.Fabric)
			r, err := core.ReplayRunner(sys, spec.Name, buckets)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("core.run", cell, req, i, cfg.Fabric)
			res, err := r.Run(ctx)
			tr.end(id)
			tr.end(cell)
			if err != nil {
				return nil, fmt.Errorf("cell %d (%s on %s): %w", i, spec.Name, cfg.Name(), err)
			}
			cells = append(cells, core.CellResult{Index: i, Row: w, Col: c,
				Workload: spec.Name, Config: cfg.Name(), Result: res})
		}
	}
	return cells, nil
}
