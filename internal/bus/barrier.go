package bus

import (
	"fmt"

	"corona/internal/noc"
	"corona/internal/sim"
)

// Section 3.2.2: "the bus' functionality could be generalized for other
// broadcast applications, such as bandwidth adaptive snooping and barrier
// notification." Barrier implements the barrier-notification generalization:
// each participating cluster broadcasts a one-wavelength arrival pulse; every
// cluster snoops all pulses, so each observes the full arrival count and
// releases itself locally — no central coordinator, no release broadcast.
type Barrier struct {
	k   *sim.Kernel
	b   *Bus
	n   int // participants
	gen uint64

	arrived  []int // per-cluster count of observed arrivals (this generation)
	released []func()
	waiting  []bool
	// stalled parks arrival pulses the bus refused, for broadcastRetry.
	stalled sim.Slots[*noc.Message]

	// Releases counts completed barrier episodes (any cluster's local
	// release increments once per generation, at the last observer).
	Releases uint64
}

// NewBarrier attaches a barrier protocol to bus b with n participating
// clusters. It takes over the bus's delivery callbacks for barrier messages;
// install it before other SetDeliver users or use a dedicated bus instance
// (Corona allocates separate wavelengths, so a dedicated instance mirrors
// the hardware).
func NewBarrier(b *Bus, n int) *Barrier {
	if n <= 0 || n > b.Clusters() {
		panic(fmt.Sprintf("bus: barrier size %d out of range", n))
	}
	br := &Barrier{
		k: b.k, b: b, n: n,
		arrived:  make([]int, b.Clusters()),
		released: make([]func(), b.Clusters()),
		waiting:  make([]bool, b.Clusters()),
	}
	for c := 0; c < b.Clusters(); c++ {
		c := c
		b.SetDeliver(c, func(m *noc.Message) { br.snoop(c, m) })
	}
	return br
}

// Arrive announces cluster's arrival at the barrier; release runs at that
// cluster once it has snooped all n arrivals.
func (br *Barrier) Arrive(cluster int, release func()) {
	if br.waiting[cluster] {
		panic(fmt.Sprintf("bus: cluster %d arrived twice at the barrier", cluster))
	}
	br.waiting[cluster] = true
	br.released[cluster] = release
	m := br.b.Acquire()
	m.ID, m.Src, m.Dst = br.gen, cluster, -1
	m.Size, m.Kind = 1, noc.KindCoherence
	if !br.b.Broadcast(m) {
		br.k.ScheduleEvent(2, (*broadcastRetry)(br), br.stalled.Put(m))
	}
}

// broadcastRetry re-offers a refused arrival pulse every two cycles until
// the bus accepts it; data is the pulse's stalled slot.
type broadcastRetry Barrier

func (e *broadcastRetry) OnEvent(_ sim.Time, slot uint64) {
	br := (*Barrier)(e)
	if !br.b.Broadcast(br.stalled.Get(slot)) {
		br.k.ScheduleEvent(2, e, slot)
		return
	}
	br.stalled.Free(slot)
}

// snoop counts arrivals at each cluster and releases it when complete.
func (br *Barrier) snoop(cluster int, m *noc.Message) {
	if m.Kind != noc.KindCoherence {
		return
	}
	br.arrived[cluster]++
	if br.arrived[cluster] < br.n {
		return
	}
	// This cluster has seen every arrival: release locally.
	br.arrived[cluster] = 0
	if br.waiting[cluster] {
		br.waiting[cluster] = false
		if fn := br.released[cluster]; fn != nil {
			br.released[cluster] = nil
			fn()
		}
	}
	if cluster == br.b.Clusters()-1 {
		br.Releases++
		br.gen++
	}
}
