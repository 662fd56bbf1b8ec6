// Package xbar models Corona's optical crossbar (Section 3.2.1): a fully
// connected 64x64 interconnect built from 64 many-writer single-reader DWDM
// channels laid out as serpentine waveguide bundles.
//
// Each cluster owns one channel that only it can read; any cluster may write
// the channel by modulating the light as it passes. A channel is 256
// wavelengths (4 bundled waveguides) wide and is modulated on both clock
// edges, moving 64 bytes — one cache line — per 5 GHz clock, for 2.56 Tb/s
// per cluster and 20.48 TB/s total. Light is sourced at the channel's home
// cluster, travels once around the serpentine in 8 clocks, and terminates in
// the home cluster's detectors, so propagation takes up to 8 clocks
// depending on sender position. Write access is arbitrated by the all-optical
// token scheme in package arbiter; receive buffers at the home cluster apply
// credit-based back pressure to writers.
package xbar

import (
	"fmt"

	"corona/internal/arbiter"
	"corona/internal/noc"
	"corona/internal/sim"
)

// Config parameterizes the crossbar.
type Config struct {
	Clusters      int // 64
	BytesPerCycle int // channel payload per cycle (64 = one cache line)
	TokenSpeed    int // cluster positions the token travels per cycle (8)
	// InjectQueue is the per-(source,destination) injection FIFO depth.
	InjectQueue int
	// RecvBuffer is the per-destination receive buffer depth in messages;
	// it is the credit pool writers draw from.
	RecvBuffer int
}

// DefaultConfig returns the published Corona crossbar parameters.
func DefaultConfig() Config {
	return Config{
		Clusters:      64,
		BytesPerCycle: 64,
		TokenSpeed:    8,
		InjectQueue:   8,
		RecvBuffer:    16,
	}
}

type srcDstQueue struct {
	msgs   sim.Fifo[*noc.Message]
	active bool // head message is progressing through credit/token/transmit
}

// Crossbar implements noc.Network.
type Crossbar struct {
	noc.MsgPool // per-network message free list (Acquire / Consume recycles)

	k   *sim.Kernel
	cfg Config
	arb *arbiter.TokenRing

	queues  [][]srcDstQueue // [src][dst]
	deliver []noc.DeliverFunc

	credits    []int           // per destination channel
	creditWait []sim.Fifo[int] // per destination: src clusters waiting, FIFO

	// slots parks in-flight messages for the typed delivery event.
	slots sim.Slots[*noc.Message]

	stats noc.Stats
	// BusyCycles accumulates channel occupancy for utilization reporting.
	BusyCycles uint64
}

var _ noc.Network = (*Crossbar)(nil)

// The crossbar's kernel events run on the typed fast path: named views of
// the Crossbar implement sim.Handler for each event kind, with the source
// and destination cluster packed into the data word, so the hot
// credit/token/transmit pipeline schedules without allocating.

// pack2 packs a (src, dst) cluster pair into a handler data word.
func pack2(src, dst int) uint64 { return uint64(src)<<16 | uint64(dst) }

func unpack2(data uint64) (src, dst int) { return int(data >> 16 & 0xffff), int(data & 0xffff) }

// creditEvent hands a freed receive-buffer credit to a waiting writer.
type creditEvent Crossbar

func (e *creditEvent) OnEvent(_ sim.Time, data uint64) {
	src, dst := unpack2(data)
	(*Crossbar)(e).haveCredit(src, dst)
}

// releaseEvent fires when a message's tail leaves the modulators: the token
// re-injects and the next queued message restarts at the credit step.
type releaseEvent Crossbar

func (e *releaseEvent) OnEvent(_ sim.Time, data uint64) {
	x := (*Crossbar)(e)
	src, dst := unpack2(data)
	x.arb.Release(dst, src)
	x.advance(src, dst)
}

// deliverEvent fires when the light reaches the destination's detectors.
type deliverEvent Crossbar

func (e *deliverEvent) OnEvent(_ sim.Time, data uint64) {
	x := (*Crossbar)(e)
	m := x.slots.Take(data)
	x.stats.Messages++
	x.stats.Bytes += uint64(m.Size)
	x.deliver[m.Dst](m)
}

// Granted implements arbiter.GrantHandler: the destination channel's token
// was diverted for cluster, so the head message transmits.
func (x *Crossbar) Granted(channel, cluster int) { x.transmit(cluster, channel) }

// New builds a crossbar on kernel k.
func New(k *sim.Kernel, cfg Config) *Crossbar {
	if cfg.Clusters > 1<<16 {
		// pack2 carries cluster ids in 16-bit event data fields.
		panic(fmt.Sprintf("xbar: %d clusters exceeds the %d-cluster event encoding limit",
			cfg.Clusters, 1<<16))
	}
	if cfg.Clusters <= 0 || cfg.BytesPerCycle <= 0 || cfg.InjectQueue <= 0 || cfg.RecvBuffer <= 0 {
		panic(fmt.Sprintf("xbar: invalid config %+v", cfg))
	}
	x := &Crossbar{
		k:          k,
		cfg:        cfg,
		arb:        arbiter.New(k, cfg.Clusters, cfg.Clusters, cfg.TokenSpeed),
		queues:     make([][]srcDstQueue, cfg.Clusters),
		deliver:    make([]noc.DeliverFunc, cfg.Clusters),
		credits:    make([]int, cfg.Clusters),
		creditWait: make([]sim.Fifo[int], cfg.Clusters),
	}
	for i := range x.queues {
		x.queues[i] = make([]srcDstQueue, cfg.Clusters)
		x.credits[i] = cfg.RecvBuffer
	}
	return x
}

// Name implements noc.Network.
func (x *Crossbar) Name() string { return "xbar" }

// Reset implements noc.Resetter: restore the construction state in place,
// keeping the message pool and grown queue capacity. Delivery callbacks are
// left installed; a reusing System overwrites them via SetDeliver.
func (x *Crossbar) Reset() {
	for src := range x.queues {
		for dst := range x.queues[src] {
			q := &x.queues[src][dst]
			q.msgs.Reset()
			q.active = false
		}
	}
	for d := range x.credits {
		x.credits[d] = x.cfg.RecvBuffer
		x.creditWait[d].Reset()
	}
	x.slots.Reset()
	x.arb.Reset()
	x.stats = noc.Stats{}
	x.BusyCycles = 0
}

// Clusters implements noc.Network.
func (x *Crossbar) Clusters() int { return x.cfg.Clusters }

// Stats returns message/byte counters.
func (x *Crossbar) Stats() noc.Stats { return x.stats }

// Arbiter exposes the token ring for statistics.
func (x *Crossbar) Arbiter() *arbiter.TokenRing { return x.arb }

// SetDeliver implements noc.Network.
func (x *Crossbar) SetDeliver(cluster int, fn noc.DeliverFunc) {
	x.deliver[cluster] = fn
}

// Send implements noc.Network: enqueue on the (src,dst) injection FIFO.
// Cluster-local traffic never enters the optics; the hub must handle it
// without the network, so src == dst panics.
func (x *Crossbar) Send(m *noc.Message) bool {
	if !noc.Valid(m, x.cfg.Clusters) {
		panic(noc.Validate(m, x.cfg.Clusters))
	}
	if m.Src == m.Dst {
		panic(fmt.Sprintf("xbar: message %d is cluster-local (src == dst == %d)", m.ID, m.Src))
	}
	q := &x.queues[m.Src][m.Dst]
	if q.msgs.Len() >= x.cfg.InjectQueue {
		return false
	}
	m.Inject = x.k.Now()
	q.msgs.Push(m)
	if !q.active {
		q.active = true
		x.advance(m.Src, m.Dst)
	}
	return true
}

// Consume implements noc.Network: the hub drained one message from cluster's
// receive buffer, freeing a credit and recycling the message. The crossbar
// has a single buffer pool per cluster, so only the freed credit matters.
func (x *Crossbar) Consume(cluster int, m *noc.Message) {
	x.Release(m)
	if wait := &x.creditWait[cluster]; !wait.Empty() {
		// Hand the credit straight to the waiting writer.
		x.k.ScheduleEvent(0, (*creditEvent)(x), pack2(wait.Pop(), cluster))
		return
	}
	x.credits[cluster]++
	if x.credits[cluster] > x.cfg.RecvBuffer {
		panic(fmt.Sprintf("xbar: credit overflow at cluster %d", cluster))
	}
}

// advance starts the head message of (src,dst) through the credit/token
// pipeline.
func (x *Crossbar) advance(src, dst int) {
	q := &x.queues[src][dst]
	if q.msgs.Empty() {
		q.active = false
		return
	}
	// Step 1: acquire a receive-buffer credit at dst.
	if x.credits[dst] > 0 {
		x.credits[dst]--
		x.haveCredit(src, dst)
	} else {
		x.creditWait[dst].Push(src)
	}
}

// haveCredit is step 2: arbitrate for the destination's channel token.
func (x *Crossbar) haveCredit(src, dst int) {
	x.arb.RequestEvent(dst, src, x)
}

// transmit is step 3: modulate the message onto the channel, release the
// token with the message tail, and deliver after propagation.
func (x *Crossbar) transmit(src, dst int) {
	q := &x.queues[src][dst]
	m := q.msgs.Pop()

	tx := sim.Time((m.Size + x.cfg.BytesPerCycle - 1) / x.cfg.BytesPerCycle)
	prop := x.propagation(src, dst)
	x.BusyCycles += uint64(tx)

	// Token travels in parallel with the tail of the message.
	x.k.ScheduleEvent(tx, (*releaseEvent)(x), pack2(src, dst))
	x.k.ScheduleEvent(tx+prop, (*deliverEvent)(x), x.slots.Put(m))
}

// propagation returns the serpentine transit time from src's modulators to
// dst's (the channel home's) detectors: light travels in cyclically
// increasing cluster order and covers TokenSpeed positions per cycle,
// so the farthest writer pays the paper's 8-clock maximum.
func (x *Crossbar) propagation(src, dst int) sim.Time {
	d := (dst - src) % x.cfg.Clusters
	if d <= 0 {
		d += x.cfg.Clusters
	}
	return sim.Time((d + x.cfg.TokenSpeed - 1) / x.cfg.TokenSpeed)
}

// Utilization returns mean channel occupancy over elapsed cycles across all
// channels (0..1).
func (x *Crossbar) Utilization(elapsed sim.Time) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(x.BusyCycles) / (float64(elapsed) * float64(x.cfg.Clusters))
}
