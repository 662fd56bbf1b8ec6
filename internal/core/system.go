// Package core assembles the full Corona system model — 64 cluster hubs, an
// on-stack interconnect, and 64 memory controllers with their off-stack
// links — and drives the trace-replay experiments that reproduce the
// paper's evaluation (Figures 8-11). The interconnect is resolved by name
// through the noc fabric registry, so core knows nothing about individual
// topologies: registering a new fabric (docs/ARCHITECTURE.md) makes it
// buildable here, sweepable, and loadable from JSON with no core change.
//
// The hub mirrors Figure 2(b): it routes each L2 miss between the cluster,
// the network interface, and the memory controller, holding it in a finite
// MSHR file and exerting back pressure when any stage (MSHRs, injection
// queues, receive buffers, controller queues) fills — the modelling detail
// the paper calls out ("finite buffers, queues, and ports ... bandwidth,
// latency, back pressure, and capacity limits").
//
// Sweep is the experiment matrix behind the figures. Its engine fans the
// independent (configuration, workload) cells out over a bounded,
// statically sharded worker pool (Pool) with derived per-workload seeds
// (CellSeed) and an optional on-disk result cache, producing tables that
// are byte-identical for every worker count; the scheme and its guarantee
// are documented in docs/DETERMINISM.md.
//
// Execution is context-aware end to end: every run takes a context.Context
// and returns (Result, error) — invalid input is a *ConfigError, a stopped
// run a *CanceledError — and Client/Job wrap the engine in a submission API
// whose sweeps stream cells as they finish (Job.Results) instead of
// blocking on the matrix barrier. That is the seam internal/server exposes
// over HTTP; docs/API.md documents the model.
package core

import (
	"fmt"

	"corona/internal/cache"
	"corona/internal/config"
	"corona/internal/memory"
	"corona/internal/noc"
	"corona/internal/sim"
	"corona/internal/stats"
	"corona/internal/traffic"
)

// txn is one in-flight L2 miss transaction.
type txn struct {
	id      uint64
	cluster int
	home    int
	line    uint64
	write   bool
	issue   sim.Time
}

// System is a fully assembled simulated machine.
type System struct {
	K   *sim.Kernel
	Cfg config.System
	Net noc.Network
	MCs []*memory.Controller

	// fabric is the registry descriptor Net was built from; the result
	// collector uses its analytic metadata (power, channel utilization).
	fabric noc.Fabric

	hubs []*hub

	// Latency is the end-to-end L2 miss latency histogram in nanoseconds
	// (Figure 10's metric: queueing plus transit).
	Latency *stats.Histogram
	// WireBytes counts memory-transaction bytes for Figure 9's achieved
	// bandwidth.
	WireBytes uint64

	completed int
	nextID    uint64

	// txnSlots parks in-flight transactions — by value, so a transaction is
	// never individually heap-allocated — for the hubs' typed events and the
	// messages that carry them: a transaction occupies exactly one slot from
	// Issue to retirement, and that slot index is what rides in
	// noc.Message.Payload. msgSlots parks back-pressured deliveries awaiting
	// controller space. Together they make the steady-state request
	// lifecycle allocation-free.
	txnSlots sim.Slots[txn]
	msgSlots sim.Slots[*noc.Message]

	// onMSHRFree, when set, is called with the cluster id whenever that
	// cluster retires a transaction; the runner uses it to resume issue.
	onMSHRFree func(cluster int)
}

// hub is one cluster's message router (Figure 2b).
type hub struct {
	sys  *System
	id   int
	mshr *cache.MSHR
	// outq holds messages awaiting network injection, per destination, with
	// one retry timer per destination (outArmed) — unbounded here because
	// the MSHR file already bounds the cluster's outstanding work.
	outq     []sim.Fifo[*noc.Message]
	outArmed []bool
}

// Hub kernel events run on the typed fast path via named views of the hub.
// The data word is the transaction's txnSlots index — the same index the
// transaction keeps for its whole Issue→retire life — except for the
// controller-space retry events, whose data is a msgSlots index holding the
// back-pressured delivery.

// submitLocalEvent pushes a cluster-local miss into the memory controller
// after the hub traversal.
type submitLocalEvent hub

func (e *submitLocalEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.submitLocal(data)
}

// pumpRetryEvent re-drives a back-pressured injection queue.
type pumpRetryEvent hub

func (e *pumpRetryEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.outArmed[data] = false
	h.pumpOut(int(data))
}

// respondEvent is the memory controller's typed completion for remote
// transactions: send the response back over the network.
type respondEvent hub

func (e *respondEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.respond(data)
}

// localDoneEvent is the completion for cluster-local transactions: the
// response crosses only the hub, then the transaction retires.
type localDoneEvent hub

func (e *localDoneEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.sys.K.ScheduleEvent(sim.Time(h.sys.Cfg.HubLatency), (*retireEvent)(h), data)
}

// retireEvent completes a transaction at its requesting cluster.
type retireEvent hub

func (e *retireEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.sys.retire(h.sys.txnSlots.Take(data))
}

// remoteRetryEvent re-presents a delivered request to a previously full
// memory controller; its data parks the held message in msgSlots.
type remoteRetryEvent hub

func (e *remoteRetryEvent) OnEvent(_ sim.Time, data uint64) {
	h := (*hub)(e)
	h.submitRemote(h.sys.msgSlots.Take(data))
}

// NewSystem builds a machine per cfg. Invalid input — an unregistered
// fabric, rejected parameters, non-positive structural sizing, or a fabric
// whose built network disagrees with the configured cluster count — returns
// a *ConfigError instead of panicking, so bad configurations are a caller
// problem (a 4xx behind the server) rather than a crash.
func NewSystem(cfg config.System) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, &ConfigError{Name: cfg.Name(), Err: err}
	}
	k := sim.NewKernel()
	s := &System{
		K:       k,
		Cfg:     cfg,
		MCs:     make([]*memory.Controller, cfg.Clusters),
		hubs:    make([]*hub, cfg.Clusters),
		Latency: stats.NewHistogram(1 << 17),
	}
	fab, _ := noc.Lookup(cfg.Fabric) // Validate guarantees registration
	net, err := fab.Build(k, cfg.Params())
	if err != nil {
		return nil, &ConfigError{Name: cfg.Name(), Err: fmt.Errorf("core: %s: %w", cfg.Name(), err)}
	}
	s.fabric, s.Net = fab, net
	if s.Net.Clusters() != cfg.Clusters {
		return nil, &ConfigError{Name: cfg.Name(), Err: fmt.Errorf(
			"core: %s: network has %d endpoints, config %d", cfg.Name(), s.Net.Clusters(), cfg.Clusters)}
	}
	mcfg := cfg.MemConfig()
	for c := 0; c < cfg.Clusters; c++ {
		s.MCs[c] = memory.NewController(k, mcfg, c)
		h := &hub{
			sys: s, id: c, mshr: cache.NewMSHR(cfg.MSHRs),
			outq:     make([]sim.Fifo[*noc.Message], cfg.Clusters),
			outArmed: make([]bool, cfg.Clusters),
		}
		s.hubs[c] = h
		s.Net.SetDeliver(c, h.deliver)
	}
	return s, nil
}

// Reset returns the system to its just-constructed state, reusing every
// grown buffer: the kernel's node arena, the network's queues and pools, the
// controllers' booking lists, the hubs' MSHR files and injection queues, and
// the latency reservoir. It fails when the fabric does not support in-place
// reset (no noc.Resetter); callers fall back to building a fresh system.
func (s *System) Reset() error {
	r, ok := s.Net.(noc.Resetter)
	if !ok {
		return fmt.Errorf("core: %s: fabric %q does not support in-place reset (no noc.Resetter)", s.Cfg.Name(), s.Net.Name())
	}
	s.K.Reset()
	r.Reset()
	for _, mc := range s.MCs {
		mc.Reset()
	}
	for _, h := range s.hubs {
		h.mshr.Reset()
		for dst := range h.outq {
			h.outq[dst].Reset()
		}
		clear(h.outArmed)
	}
	s.Latency.Reset()
	s.WireBytes, s.completed, s.nextID = 0, 0, 0
	s.txnSlots.Reset()
	s.msgSlots.Reset()
	s.onMSHRFree = nil
	return nil
}

// Completed returns the number of retired transactions.
func (s *System) Completed() int { return s.completed }

// SetMSHRFreeHook installs the runner's issue-resume callback.
func (s *System) SetMSHRFreeHook(fn func(cluster int)) { s.onMSHRFree = fn }

// MSHRFree reports whether cluster can accept another miss.
func (s *System) MSHRFree(cluster int) bool {
	h := s.hubs[cluster]
	return h.mshr.Len() < h.mshr.Cap()
}

// Issue injects one L2 miss at the current simulation time. It returns false
// when the cluster's MSHR file is full (the caller must retry after a
// retirement). Merged secondary misses return true without generating
// network traffic, exactly like hardware MSHRs.
func (s *System) Issue(cluster int, addr uint64, write bool) bool {
	h := s.hubs[cluster]
	line := addr / noc.LineBytes
	primary, ok := h.mshr.Allocate(line)
	if !ok {
		return false
	}
	if !primary {
		return true // merged onto an outstanding miss
	}
	s.nextID++
	t := txn{
		id:      s.nextID,
		cluster: cluster,
		home:    traffic.HomeOf(addr, s.Cfg.Clusters),
		line:    line,
		write:   write,
		issue:   s.K.Now(),
	}
	slot := s.txnSlots.Put(t)
	if t.home == cluster {
		// Local transaction: hub -> MC directly, no network.
		s.K.ScheduleEvent(sim.Time(s.Cfg.HubLatency), (*submitLocalEvent)(h), slot)
		return true
	}
	m := s.Net.Acquire()
	m.ID, m.Src, m.Dst = t.id, t.cluster, t.home
	m.Kind, m.Size = noc.KindRequest, noc.RequestBytes
	if t.write {
		m.Kind, m.Size = noc.KindWriteback, noc.WritebackBytes
	}
	m.Payload = slot
	h.send(m)
	return true
}

// send injects m, queueing it only when the network (or queue order)
// requires: an uncontended destination goes straight into the fabric, so
// hubs that never see back pressure never grow an injection buffer.
func (h *hub) send(m *noc.Message) {
	q := &h.outq[m.Dst]
	if q.Empty() {
		if h.sys.Net.Send(m) {
			return
		}
		q.Push(m)
		h.armRetry(m.Dst)
		return
	}
	q.Push(m)
	h.pumpOut(m.Dst)
}

// armRetry schedules the (single) injection retry timer for dst.
func (h *hub) armRetry(dst int) {
	if !h.outArmed[dst] {
		h.outArmed[dst] = true
		h.sys.K.ScheduleEvent(2, (*pumpRetryEvent)(h), uint64(dst))
	}
}

// pumpOut injects as many queued messages for dst as the network accepts,
// then arms a single retry timer on back pressure.
func (h *hub) pumpOut(dst int) {
	q := &h.outq[dst]
	for !q.Empty() {
		if !h.sys.Net.Send(q.Front()) {
			h.armRetry(dst)
			return
		}
		q.Pop()
	}
}

// deliver handles a network arrival at this hub.
func (h *hub) deliver(m *noc.Message) {
	switch m.Kind {
	case noc.KindRequest, noc.KindWriteback:
		h.submitRemote(m)
	case noc.KindResponse:
		slot := m.Payload
		h.sys.Net.Consume(h.id, m) // recycles m; slot outlives it
		h.sys.retire(h.sys.txnSlots.Take(slot))
	default:
		panic(fmt.Sprintf("core: hub %d received unexpected %v", h.id, m.Kind))
	}
}

// submitRemote pushes a delivered request into the local memory controller,
// holding the network receive-buffer credit (and the message) until the
// controller accepts — that is how controller congestion back-pressures the
// interconnect.
func (h *hub) submitRemote(m *noc.Message) {
	if h.trySubmit(m.Payload, (*respondEvent)(h)) {
		h.sys.Net.Consume(h.id, m)
		return
	}
	h.sys.MCs[h.id].NotifySpaceEvent((*remoteRetryEvent)(h), h.sys.msgSlots.Put(m))
}

// submitLocal pushes a cluster-local request into the MC, retrying while
// the queue is full (the retry re-enters through submitLocalEvent; no
// message or credit is held for local transactions). Its completion
// crosses only the hub, not the network.
func (h *hub) submitLocal(slot uint64) {
	if h.trySubmit(slot, (*localDoneEvent)(h)) {
		return
	}
	h.sys.MCs[h.id].NotifySpaceEvent((*submitLocalEvent)(h), slot)
}

// trySubmit presents the parked transaction to the local controller. The
// request is stack-allocated: Submit copies it by value and the completion
// carries the transaction's slot, so the whole exchange allocates nothing.
func (h *hub) trySubmit(slot uint64, done sim.Handler) bool {
	t := h.sys.txnSlots.Get(slot)
	req := memory.Request{
		ID:          t.id,
		Addr:        t.line * noc.LineBytes,
		Write:       t.write,
		DoneHandler: done,
		DoneData:    slot,
	}
	if t.write {
		req.ReqBytes = noc.WritebackBytes
		req.RspBytes = 0
	} else {
		req.ReqBytes = noc.RequestBytes
		req.RspBytes = noc.ResponseBytes
	}
	return h.sys.MCs[h.id].Submit(&req)
}

// respond sends the completion back to the requester (full line for reads, a
// small ack for writebacks); the transaction keeps its slot for the ride.
func (h *hub) respond(slot uint64) {
	t := h.sys.txnSlots.Get(slot)
	m := h.sys.Net.Acquire()
	m.ID, m.Src, m.Dst = t.id, h.id, t.cluster
	m.Kind, m.Size = noc.KindResponse, noc.ResponseBytes
	if t.write {
		m.Size = noc.RequestBytes // write ack
	}
	m.Payload = slot
	h.send(m)
}

// retire completes a transaction at its requesting cluster: MSHR entry (and
// all merged requesters) release, latency accounting, issue-resume hook.
func (s *System) retire(t txn) {
	h := s.hubs[t.cluster]
	merged := h.mshr.Complete(t.line)
	lat := (s.K.Now() - t.issue).Ns()
	wire := uint64(noc.RequestBytes + noc.ResponseBytes)
	if t.write {
		wire = noc.WritebackBytes + noc.RequestBytes
	}
	for i := 0; i < merged; i++ {
		s.Latency.Observe(lat)
		s.completed++
	}
	s.WireBytes += wire
	if s.onMSHRFree != nil {
		s.onMSHRFree(t.cluster)
	}
}

// NetworkStats returns the interconnect's counters.
func (s *System) NetworkStats() noc.Stats { return s.Net.Stats() }

// MemoryBytesMoved sums controller traffic.
func (s *System) MemoryBytesMoved() uint64 {
	var total uint64
	for _, mc := range s.MCs {
		total += mc.BytesMoved
	}
	return total
}
