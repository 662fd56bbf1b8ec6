package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"corona/internal/config"
	"corona/internal/core"
	"corona/internal/memory"
	"corona/internal/noc"
	"corona/internal/sim"
	"corona/internal/store"
	"corona/internal/trace"
	"corona/internal/traffic"
)

// The isolated drives below exercise one layer's public API alone, fed
// with the workload's own materialized miss streams, so each layer sees
// that workload's traffic. Each drive is repeated until it has run for at
// least driveMin, and the median per-operation time over driveReps
// repetitions is reported.
const (
	driveMin  = 40 * time.Millisecond
	driveReps = 5
)

// timeDrive runs drive (which returns its operation count) repeatedly and
// returns the median nanoseconds per operation.
func timeDrive(drive func() (int, error)) (float64, error) {
	per := make([]float64, 0, driveReps)
	for r := 0; r < driveReps; r++ {
		ops := 0
		start := time.Now()
		for ops == 0 || time.Since(start) < driveMin {
			n, err := drive()
			if err != nil {
				return 0, err
			}
			ops += n
		}
		if ops == 0 {
			return 0, fmt.Errorf("drive performed no operations")
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(per), nil
}

// workloadStreams materializes every row's miss stream exactly as the
// sweep engine does for a machine of `clusters` endpoints.
func workloadStreams(sc *core.Scenario, clusters int) [][][]trace.Record {
	rows := make([][][]trace.Record, len(sc.Workloads))
	for w, spec := range sc.Workloads {
		rows[w] = core.MaterializeStream(spec, clusters, sc.Requests, core.CellSeed(sc.Seed, spec.Name))
	}
	return rows
}

// chainDrive replays each cluster's records as a chain of kernel events:
// the event for one record schedules the cluster's next record at its issue
// time, as the runner's issue wake-ups do.
type chainDrive struct {
	k       *sim.Kernel
	buckets [][]trace.Record
	pos     []int
	fired   int
}

func (d *chainDrive) OnEvent(now sim.Time, cluster uint64) {
	d.fired++
	b := d.buckets[cluster]
	if i := d.pos[cluster]; i < len(b) {
		d.pos[cluster]++
		d.k.AtEvent(max(b[i].Time, now), d, cluster)
	}
}

// driveKernel schedules and steps one event per record of every row on a
// fresh sim.Kernel per row.
func driveKernel(rows [][][]trace.Record) (int, error) {
	total := 0
	for _, buckets := range rows {
		d := &chainDrive{k: sim.NewKernel(), buckets: buckets, pos: make([]int, len(buckets))}
		want := 0
		for c, b := range buckets {
			want += len(b)
			if len(b) > 0 {
				d.pos[c] = 1
				d.k.AtEvent(b[0].Time, d, uint64(c))
			}
		}
		for d.k.Step() {
		}
		if d.fired != want {
			return 0, fmt.Errorf("kernel drive fired %d of %d events", d.fired, want)
		}
		total += want
	}
	return total, nil
}

// driveFabric builds cfg's interconnect through the fabric registry and
// sends every remote transaction of the rows through it: a request (or
// writeback) from the requester to the line's home, and for reads a
// response back. Deliveries are consumed at once, so the drive measures the
// fabric's Send/deliver/Consume path under the workload's src/dst mix.
func driveFabric(cfg config.System, rows [][][]trace.Record) (int, error) {
	fab, ok := noc.Lookup(cfg.Fabric)
	if !ok {
		return 0, fmt.Errorf("fabric %q not registered", cfg.Fabric)
	}
	k := sim.NewKernel()
	net, err := fab.Build(k, cfg.Params())
	if err != nil {
		return 0, err
	}
	n := net.Clusters()
	delivered := 0
	for c := 0; c < n; c++ {
		c := c
		net.SetDeliver(c, func(m *noc.Message) { delivered++; net.Consume(c, m) })
	}
	sent := 0
	send := func(src, dst int, kind noc.Kind, size int) error {
		m := net.Acquire()
		m.ID, m.Src, m.Dst, m.Kind, m.Size = uint64(sent), src, dst, kind, size
		for !net.Send(m) {
			if !k.Step() {
				return fmt.Errorf("%s drive: injection refused with nothing in flight", cfg.Name())
			}
		}
		if sent++; sent%64 == 0 {
			k.RunLimit(4096)
		}
		return nil
	}
	for _, buckets := range rows {
		err := interleave(buckets, func(c int, rec trace.Record) error {
			home := traffic.HomeOf(rec.Addr, n)
			if home == c {
				return nil // cluster-local: never enters the fabric
			}
			if rec.Write {
				return send(c, home, noc.KindWriteback, noc.WritebackBytes)
			}
			if err := send(c, home, noc.KindRequest, noc.RequestBytes); err != nil {
				return err
			}
			return send(home, c, noc.KindResponse, noc.ResponseBytes)
		})
		if err != nil {
			return 0, err
		}
	}
	k.Run()
	if delivered != sent {
		return 0, fmt.Errorf("%s drive delivered %d of %d messages", cfg.Name(), delivered, sent)
	}
	return sent, nil
}

// driveMemory submits every record of the rows to its home controller of a
// fresh set of mcfg controllers, stepping the kernel whenever a queue is
// full.
func driveMemory(mcfg memory.Config, clusters int, rows [][][]trace.Record) (int, error) {
	k := sim.NewKernel()
	mcs := make([]*memory.Controller, clusters)
	for c := range mcs {
		mcs[c] = memory.NewController(k, mcfg, c)
	}
	submitted := 0
	for _, buckets := range rows {
		err := interleave(buckets, func(_ int, rec trace.Record) error {
			req := memory.Request{ID: uint64(submitted), Addr: rec.Addr / noc.LineBytes * noc.LineBytes,
				Write: rec.Write, ReqBytes: noc.RequestBytes, RspBytes: noc.ResponseBytes}
			if rec.Write {
				req.ReqBytes, req.RspBytes = noc.WritebackBytes, 0
			}
			mc := mcs[traffic.HomeOf(rec.Addr, clusters)]
			for !mc.Submit(&req) {
				if !k.Step() {
					return fmt.Errorf("memory drive: queue full with nothing in flight")
				}
			}
			if submitted++; submitted%256 == 0 {
				k.RunLimit(4096)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	k.Run()
	served := uint64(0)
	for _, mc := range mcs {
		served += mc.Served
	}
	if served != uint64(submitted) {
		return 0, fmt.Errorf("memory drive served %d of %d requests", served, submitted)
	}
	return submitted, nil
}

// interleave visits a row's records round-robin across clusters, the order
// in which the clusters' streams advance side by side.
func interleave(buckets [][]trace.Record, fn func(cluster int, rec trace.Record) error) error {
	for i := 0; ; i++ {
		more := false
		for c, b := range buckets {
			if i < len(b) {
				more = true
				if err := fn(c, b[i]); err != nil {
					return err
				}
			}
		}
		if !more {
			return nil
		}
	}
}

// fabricFamily groups registry fabric names into the per-layer metric
// prefixes: both electrical meshes are the mesh layer.
func fabricFamily(fabric string) string {
	switch fabric {
	case "lmesh", "hmesh":
		return "mesh"
	case "xbar", "swmr":
		return fabric
	}
	return ""
}

// layerDrives runs the isolated fabric, memory and kernel drives for the
// layers the scenario's machines contain; a layer no machine uses reports 0.
func layerDrives(sc *core.Scenario) (map[string]float64, error) {
	clusters := sc.Configs[0].Clusters
	rows := workloadStreams(sc, clusters)
	out := map[string]float64{}
	for _, m := range []string{"mesh.ns_per_msg", "xbar.ns_per_msg", "swmr.ns_per_msg",
		"memory.ocm.ns_per_req", "memory.ecm.ns_per_req"} {
		out[m] = 0
	}
	var err error
	if out["sim.kernel.ns_per_event"], err = timeDrive(func() (int, error) { return driveKernel(rows) }); err != nil {
		return nil, err
	}
	// One drive per distinct fabric, pooled per family: the family's
	// ns/msg is total time over total messages across its fabrics.
	type acc struct{ ns, msgs float64 }
	fam := map[string]*acc{}
	seen := map[string]bool{}
	for _, cfg := range sc.Configs {
		if f := fabricFamily(cfg.Fabric); f != "" && !seen[cfg.Fabric] {
			seen[cfg.Fabric] = true
			msgs, err := driveFabric(cfg, rows)
			if err != nil {
				return nil, err
			}
			per, err := timeDrive(func() (int, error) { return driveFabric(cfg, rows) })
			if err != nil {
				return nil, err
			}
			if fam[f] == nil {
				fam[f] = &acc{}
			}
			fam[f].ns += per * float64(msgs)
			fam[f].msgs += float64(msgs)
		}
		if mem := "memory." + strings.ToLower(cfg.Mem.String()) + ".ns_per_req"; !seen[mem] {
			seen[mem] = true
			mcfg := cfg.MemConfig()
			if out[mem], err = timeDrive(func() (int, error) { return driveMemory(mcfg, clusters, rows) }); err != nil {
				return nil, err
			}
		}
	}
	for f, a := range fam {
		out[f+".ns_per_msg"] = a.ns / a.msgs
	}
	return out, nil
}

// replayJournal appends cells, in order and cycling until at least minAppends,
// to a fresh journal opened with default options (fsync on every append),
// and returns each AppendCell's latency in microseconds.
func replayJournal(dir string, scenario []byte, cells []core.CellResult, minAppends int) ([]float64, error) {
	st, err := store.Open(dir, store.Options{Logger: quiet})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var lat []float64
	for job := 0; len(lat) < minAppends; job++ {
		id := fmt.Sprintf("replay-%d", job)
		if err := st.AppendSubmit(id, scenario, len(cells), time.Now(), 0); err != nil {
			st.Close()
			return nil, err
		}
		for _, c := range cells {
			t0 := time.Now()
			err := st.AppendCell(id, c)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				st.Close()
				return nil, err
			}
		}
	}
	return lat, st.Close()
}

// encodeCell returns the median microseconds to JSON-encode one cell onto
// a stream, as the results endpoint does.
func encodeCell(cells []core.CellResult) (float64, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	ns, err := timeDrive(func() (int, error) {
		for _, c := range cells {
			buf.Reset()
			if err := enc.Encode(c); err != nil {
				return 0, err
			}
		}
		return len(cells), nil
	})
	return ns / 1e3, err
}

// parseScenario returns the median microseconds of one ParseScenario call.
func parseScenario(scenario []byte) (float64, error) {
	ns, err := timeDrive(func() (int, error) {
		_, err := core.ParseScenario(scenario)
		return 1, err
	})
	return ns / 1e3, err
}
