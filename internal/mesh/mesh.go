// Package mesh models the electrical 2D mesh baselines of the paper's
// evaluation (Section 4): HMesh (1.28 TB/s bisection) and LMesh (0.64 TB/s
// bisection), both with 5 clocks of per-hop latency (forwarding plus signal
// propagation) and dimension-order wormhole routing [Dally & Seitz].
//
// The model is packet-granularity virtual cut-through over per-link FIFOs —
// the standard fidelity for this kind of system study. A packet of S bytes
// occupies each link on its path for ceil(S/W) cycles (W = link width in
// bytes/cycle), its head advances one hop per HopLatency, and finite input
// buffers exert credit-based back pressure upstream. Requests and responses
// travel in separate virtual networks (message classes) so that a stalled
// response never deadlocks against the requests that caused it; the physical
// link bandwidth is shared round-robin between the classes.
package mesh

import (
	"fmt"

	"corona/internal/noc"
	"corona/internal/sim"
)

// Config parameterizes a mesh.
type Config struct {
	Name          string
	Width, Height int // routers; clusters = Width*Height
	BytesPerCycle int // link bandwidth (16 for HMesh, 8 for LMesh)
	HopLatency    sim.Time
	LinkBuffer    int // input buffer per link per class, in packets
	InjectQueue   int // per-cluster injection FIFO depth (per class)
	RecvBuffer    int // per-cluster ejection buffer (credit pool for the hub)
}

// HMeshConfig returns the high-performance mesh: 16 B/cycle links give an
// 8x8 mesh a 1.28 TB/s bisection at 5 GHz.
func HMeshConfig() Config {
	return Config{
		Name: "hmesh", Width: 8, Height: 8,
		BytesPerCycle: 16, HopLatency: 5,
		LinkBuffer: 4, InjectQueue: 8, RecvBuffer: 16,
	}
}

// LMeshConfig returns the low-performance mesh: half the link width,
// 0.64 TB/s bisection.
func LMeshConfig() Config {
	c := HMeshConfig()
	c.Name = "lmesh"
	c.BytesPerCycle = 8
	return c
}

// BisectionBytesPerSec returns the mesh bisection bandwidth in bytes/second
// at 5 GHz (both directions across the vertical cut).
func (c Config) BisectionBytesPerSec() float64 {
	links := 2 * c.Height // both directions across the cut
	return float64(links*c.BytesPerCycle) * 5e9
}

// dir indexes a router's output ports.
type dir uint8

const (
	dirEast dir = iota
	dirWest
	dirNorth
	dirSouth
	dirEject
	numDirs
)

const numClasses = 2 // virtual networks: 0 = request-like, 1 = response-like

// classOf maps message kinds onto virtual networks.
func classOf(k noc.Kind) int {
	switch k {
	case noc.KindResponse, noc.KindInvalidateAck:
		return 1
	default:
		return 0
	}
}

type packet struct {
	m     *noc.Message
	path  []portRef
	stage int
	class int
}

type portRef struct {
	router int
	d      dir
}

type outPort struct {
	busyUntil sim.Time
	wakeAt    sim.Time // earliest pending wake event, to dedupe
	wakeSet   bool
	q         [numClasses]sim.Fifo[*packet]
	credits   [numClasses]int
	rr        int
}

// Mesh implements noc.Network.
type Mesh struct {
	noc.MsgPool // per-network message free list (Acquire / Consume recycles)

	k   *sim.Kernel
	cfg Config
	n   int

	// ports is the flat [router][dir] output-port array, laid out
	// router-major (index router*numDirs + dir): one contiguous block, so
	// the per-hop pipeline pays a single bounds check and no pointer chase
	// per port access.
	ports   []outPort
	deliver []noc.DeliverFunc
	// injectCount tracks stage-0 packets per cluster per class against
	// InjectQueue, laid out cluster-major (cluster*numClasses + class).
	injectCount []int

	// slots parks in-flight packets for the typed hop/eject events; pktFree
	// recycles retired packets (keeping their routed-path buffers) so the
	// steady-state Send→eject cycle allocates neither packets nor paths.
	slots   sim.Slots[*packet]
	pktFree []*packet

	stats noc.Stats
	// LinkBusyCycles accumulates occupancy across all links for utilization.
	LinkBusyCycles uint64
}

var _ noc.Network = (*Mesh)(nil)

// Mesh kernel events run on the typed fast path via named views of the Mesh:
// port references, classes, and packet slot indices pack into the data word,
// so the per-hop pipeline — the busiest scheduler client in the mesh
// configurations — allocates nothing in steady state.

// packRef packs an output-port reference (and optionally a class) into a
// handler data word: dir in the low 3 bits, router above it, class at bit 20.
func packRef(ref portRef) uint64 { return uint64(ref.router)<<3 | uint64(ref.d) }

func unpackRef(data uint64) portRef {
	return portRef{router: int(data >> 3 & 0x1ffff), d: dir(data & 7)}
}

// port returns the output port at (router, d) in the flat array.
func (m *Mesh) port(router int, d dir) *outPort {
	return &m.ports[router*int(numDirs)+int(d)]
}

// wakeEvent is a deferred tryGrant on a busy port.
type wakeEvent Mesh

func (e *wakeEvent) OnEvent(now sim.Time, data uint64) {
	m := (*Mesh)(e)
	ref := unpackRef(data)
	p := m.port(ref.router, ref.d)
	if p.wakeAt == now {
		p.wakeSet = false
	}
	m.tryGrant(ref)
}

// creditEvent returns an input-buffer credit to the upstream port once the
// packet's tail has left the router.
type creditEvent Mesh

func (e *creditEvent) OnEvent(_ sim.Time, data uint64) {
	m := (*Mesh)(e)
	ref := unpackRef(data)
	class := int(data >> 20 & 1)
	m.port(ref.router, ref.d).credits[class]++
	m.tryGrant(ref)
}

// injectDoneEvent frees the source cluster's injection-FIFO slot.
type injectDoneEvent Mesh

func (e *injectDoneEvent) OnEvent(_ sim.Time, data uint64) {
	m := (*Mesh)(e)
	m.injectCount[int(data&0xffff)*numClasses+int(data>>20&1)]--
}

// hopEvent advances a packet's head into the next router (cut-through).
type hopEvent Mesh

func (e *hopEvent) OnEvent(_ sim.Time, data uint64) {
	m := (*Mesh)(e)
	p := m.slots.Take(data)
	p.stage++
	next := p.path[p.stage]
	np := m.port(next.router, next.d)
	np.q[p.class].Push(p)
	m.tryGrant(next)
}

// ejectEvent delivers a packet's tail into the destination hub. The packet
// wrapper retires (and recycles) here; the message itself stays live until
// the hub's Consume.
type ejectEvent Mesh

func (e *ejectEvent) OnEvent(_ sim.Time, data uint64) {
	m := (*Mesh)(e)
	p := m.slots.Take(data)
	msg := p.m
	m.freePacket(p)
	m.stats.Messages++
	m.stats.Bytes += uint64(msg.Size)
	m.stats.HopTraversals += uint64(msg.Hops)
	m.deliver[msg.Dst](msg)
}

// newPacket returns a recycled (or fresh) packet wrapper; its path buffer
// keeps the capacity of earlier routes, and a fresh one is sized for the
// longest possible DOR path up front so route never grows it.
func (m *Mesh) newPacket() *packet {
	if n := len(m.pktFree); n > 0 {
		p := m.pktFree[n-1]
		m.pktFree = m.pktFree[:n-1]
		return p
	}
	//lint:allow poolflow this is the pool's own feeder: the one sanctioned packet construction site
	return &packet{path: make([]portRef, 0, m.cfg.Width+m.cfg.Height-1)}
}

// freePacket recycles a retired packet wrapper.
func (m *Mesh) freePacket(p *packet) {
	p.m = nil
	p.stage = 0
	m.pktFree = append(m.pktFree, p)
}

// New builds a mesh on kernel k.
func New(k *sim.Kernel, cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.BytesPerCycle <= 0 ||
		cfg.LinkBuffer <= 0 || cfg.InjectQueue <= 0 || cfg.RecvBuffer <= 0 {
		panic(fmt.Sprintf("mesh: invalid config %+v", cfg))
	}
	n := cfg.Width * cfg.Height
	if n > 1<<16 {
		// Event data words carry router/cluster ids in 16-bit fields
		// (injectDoneEvent) and 17-bit fields (packRef); beyond the
		// narrowest, ids would silently alias.
		panic(fmt.Sprintf("mesh: %dx%d exceeds the %d-router event encoding limit",
			cfg.Width, cfg.Height, 1<<16))
	}
	m := &Mesh{
		k: k, cfg: cfg, n: n,
		ports:       make([]outPort, n*int(numDirs)),
		deliver:     make([]noc.DeliverFunc, n),
		injectCount: make([]int, n*numClasses),
	}
	for r := 0; r < n; r++ {
		for d := dir(0); d < numDirs; d++ {
			for c := 0; c < numClasses; c++ {
				if d == dirEject {
					// Eject credits are shared across classes through the
					// hub's receive buffer; split the pool evenly.
					m.port(r, d).credits[c] = cfg.RecvBuffer / numClasses
				} else {
					m.port(r, d).credits[c] = cfg.LinkBuffer
				}
			}
		}
	}
	return m
}

// Name implements noc.Network.
func (m *Mesh) Name() string { return m.cfg.Name }

// Reset implements noc.Resetter: restore the construction state in place,
// keeping the message pool, packet pool, and grown queue capacity. Delivery
// callbacks are left installed; a reusing System overwrites them via
// SetDeliver.
func (m *Mesh) Reset() {
	for r := 0; r < m.n; r++ {
		for d := dir(0); d < numDirs; d++ {
			p := m.port(r, d)
			p.busyUntil, p.wakeAt, p.wakeSet, p.rr = 0, 0, false, 0
			for c := 0; c < numClasses; c++ {
				p.q[c].Reset()
				if d == dirEject {
					p.credits[c] = m.cfg.RecvBuffer / numClasses
				} else {
					p.credits[c] = m.cfg.LinkBuffer
				}
			}
		}
	}
	clear(m.injectCount)
	m.slots.Reset()
	m.stats = noc.Stats{}
	m.LinkBusyCycles = 0
}

// Clusters implements noc.Network.
func (m *Mesh) Clusters() int { return m.n }

// Stats returns message/byte/hop counters.
func (m *Mesh) Stats() noc.Stats { return m.stats }

// SetDeliver implements noc.Network.
func (m *Mesh) SetDeliver(cluster int, fn noc.DeliverFunc) { m.deliver[cluster] = fn }

func (m *Mesh) xy(r int) (int, int) { return r % m.cfg.Width, r / m.cfg.Width }
func (m *Mesh) id(x, y int) int     { return y*m.cfg.Width + x }

// route computes the dimension-order (X then Y) path — one output port per
// hop plus the final ejection port — into the caller's buffer, reusing its
// capacity.
func (m *Mesh) route(src, dst int, path []portRef) []portRef {
	x, y := m.xy(src)
	dx, dy := m.xy(dst)
	path = path[:0]
	for x != dx {
		if x < dx {
			path = append(path, portRef{m.id(x, y), dirEast})
			x++
		} else {
			path = append(path, portRef{m.id(x, y), dirWest})
			x--
		}
	}
	for y != dy {
		if y < dy {
			path = append(path, portRef{m.id(x, y), dirSouth})
			y++
		} else {
			path = append(path, portRef{m.id(x, y), dirNorth})
			y--
		}
	}
	path = append(path, portRef{dst, dirEject})
	return path
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Hops returns the link-traversal count between two clusters (excluding
// ejection), used by the 196 pJ/hop power model.
func (m *Mesh) Hops(src, dst int) int {
	x, y := m.xy(src)
	dx, dy := m.xy(dst)
	return abs(dx-x) + abs(dy-y)
}

// Send implements noc.Network.
func (m *Mesh) Send(msg *noc.Message) bool {
	if !noc.Valid(msg, m.n) {
		panic(noc.Validate(msg, m.n))
	}
	if msg.Src == msg.Dst {
		panic(fmt.Sprintf("mesh: message %d is cluster-local (src == dst == %d)", msg.ID, msg.Src))
	}
	cl := classOf(msg.Kind)
	if m.injectCount[msg.Src*numClasses+cl] >= m.cfg.InjectQueue {
		return false
	}
	msg.Inject = m.k.Now()
	msg.Hops = m.Hops(msg.Src, msg.Dst)
	p := m.newPacket()
	p.m = msg
	p.class = cl
	p.path = m.route(msg.Src, msg.Dst, p.path)
	m.injectCount[msg.Src*numClasses+cl]++
	first := p.path[0]
	port := m.port(first.router, first.d)
	port.q[cl].Push(p)
	m.tryGrant(first)
	return true
}

// Consume implements noc.Network: the hub drained msg, freeing its slot in
// the ejection buffer of msg's virtual network and recycling the message.
func (m *Mesh) Consume(cluster int, msg *noc.Message) {
	class := classOf(msg.Kind)
	m.Release(msg)
	port := m.port(cluster, dirEject)
	port.credits[class]++
	m.tryGrant(portRef{cluster, dirEject})
}

// serialization returns the link occupancy of a message.
func (m *Mesh) serialization(size int) sim.Time {
	return sim.Time((size + m.cfg.BytesPerCycle - 1) / m.cfg.BytesPerCycle)
}

// tryGrant attempts to start the next eligible packet on a port, observing
// link occupancy, class round-robin, and downstream credits.
func (m *Mesh) tryGrant(ref portRef) {
	port := m.port(ref.router, ref.d)
	now := m.k.Now()
	if port.busyUntil > now {
		m.wake(ref, port.busyUntil)
		return
	}
	// Round-robin over classes, skipping empty queues and exhausted credits.
	cl := port.rr
	for i := 0; i < numClasses; i++ {
		if !port.q[cl].Empty() && port.credits[cl] != 0 {
			port.rr = (cl + 1) & (numClasses - 1)
			m.grant(ref, port, port.q[cl].Pop())
			return
		}
		cl = (cl + 1) & (numClasses - 1)
	}
}

// wake schedules a deferred tryGrant, deduplicating redundant wake-ups. The
// wake event compares the port's wakeAt against its own firing time, which
// is exactly the `at` it was scheduled for.
func (m *Mesh) wake(ref portRef, at sim.Time) {
	port := m.port(ref.router, ref.d)
	if port.wakeSet && port.wakeAt <= at {
		return
	}
	port.wakeSet = true
	port.wakeAt = at
	m.k.AtEvent(at, (*wakeEvent)(m), packRef(ref))
}

func (m *Mesh) grant(ref portRef, port *outPort, p *packet) {
	now := m.k.Now()
	s := m.serialization(p.m.Size)
	port.busyUntil = now + s
	port.credits[p.class]--
	if ref.d != dirEject {
		m.LinkBusyCycles += uint64(s)
	}

	// The upstream input-buffer slot (previous link's credit) frees when the
	// packet's tail leaves this router.
	if p.stage > 0 {
		prev := p.path[p.stage-1]
		m.k.ScheduleEvent(s, (*creditEvent)(m), packRef(prev)|uint64(p.class)<<20)
	} else {
		m.k.ScheduleEvent(s, (*injectDoneEvent)(m), uint64(p.m.Src)|uint64(p.class)<<20)
	}

	if ref.d == dirEject {
		// Tail reaches the hub after head latency plus serialization.
		m.k.ScheduleEvent(m.cfg.HopLatency+s, (*ejectEvent)(m), m.slots.Put(p))
	} else {
		// Head arrives at the next router after HopLatency (cut-through).
		m.k.ScheduleEvent(m.cfg.HopLatency, (*hopEvent)(m), m.slots.Put(p))
	}
	// The link frees after the tail passes.
	m.wake(ref, now+s)
}

// Utilization returns mean link occupancy over elapsed cycles across all
// mesh links (excluding ejection ports).
func (m *Mesh) Utilization(elapsed sim.Time) float64 {
	if elapsed == 0 {
		return 0
	}
	// 2*(W-1)*H horizontal + 2*W*(H-1) vertical unidirectional links.
	links := 2*(m.cfg.Width-1)*m.cfg.Height + 2*m.cfg.Width*(m.cfg.Height-1)
	return float64(m.LinkBusyCycles) / (float64(elapsed) * float64(links))
}
