// Package noc defines the message and network abstractions shared by the
// optical crossbars, the optical broadcast bus, and the electrical meshes,
// and hosts the fabric registry through which the system model constructs
// its interconnect by name (Register / Lookup; see docs/ARCHITECTURE.md for
// the registry design and a walkthrough of adding a new topology).
//
// A network moves Messages between cluster endpoints. Senders inject through
// Send, which may refuse a message when the per-source injection queue is
// full (back pressure); delivery is signalled through a per-destination
// callback installed with SetDeliver. All timing is in 5 GHz cycles.
//
// Messages are pooled per network (MsgPool): a producer obtains one with
// Acquire, the network owns it from a successful Send until delivery, the
// consumer owns it until Consume — which, besides returning the receive
// buffer credit, recycles the message onto the free list. The lifecycle and
// its rules are documented in docs/PERFORMANCE.md ("Message lifecycle and
// pooling rules"); in steady state the Send→Consume path allocates nothing.
package noc

import (
	"fmt"

	"corona/internal/sim"
)

// Kind classifies a message for routing and accounting.
type Kind uint8

// Message kinds. Requests and responses implement the L2-miss transaction;
// the coherence kinds are used by the directory protocol example.
const (
	KindRequest Kind = iota
	KindResponse
	KindWriteback
	KindInvalidate
	KindInvalidateAck
	KindCoherence
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindWriteback:
		return "writeback"
	case KindInvalidate:
		return "invalidate"
	case KindInvalidateAck:
		return "invalidate-ack"
	case KindCoherence:
		return "coherence"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Canonical message sizes in bytes. A request carries address and command; a
// response carries a 64 B cache line plus header (the paper sends a line as
// 256 bits twice per 5 GHz clock, i.e. 64 B/cycle on a crossbar channel).
const (
	RequestBytes   = 16
	ResponseBytes  = 72
	LineBytes      = 64
	WritebackBytes = 80
)

// Message is one network packet. Messages are obtained from a network's
// free list (Acquire), owned by the sender until Send accepts, by the
// network until delivery, and by the consumer until Consume recycles them.
type Message struct {
	ID   uint64
	Src  int // source cluster
	Dst  int // destination cluster
	Size int // bytes on the wire
	Kind Kind

	// Issue is when the requester generated the transaction (for end-to-end
	// latency); Inject is when the network accepted it.
	Issue  sim.Time
	Inject sim.Time

	// Hops is filled in by mesh networks with the number of router-to-router
	// link traversals, for the 196 pJ/hop power model. Optical networks leave
	// it zero and account power separately.
	Hops int

	// Payload is a uint64 handle into the owning simulation's payload
	// registry (sim.Slots) for messages that carry protocol state — an
	// in-flight transaction, a coherence continuation. Plain traffic leaves
	// it zero. Keeping the slot index here instead of an interface{} value
	// means a pooled message never boxes its payload: the referent stays
	// parked in one typed registry for its whole life.
	Payload uint64

	// pooled marks a message currently sitting on a free list; Release uses
	// it to detect double-recycle misuse (e.g. a double Consume).
	pooled bool
}

// MsgPool is a per-network message free list. Network implementations embed
// it to satisfy the Acquire half of the ownership cycle and call Release
// from Consume, the mandatory retirement point; after the pool has grown to
// the network's peak in-flight population, the Send→Consume path performs
// no allocation. A MsgPool belongs to one network on one kernel goroutine;
// it is not synchronized.
type MsgPool struct {
	free []*Message
}

// Acquire returns a zeroed message, reusing a recycled one when available.
func (p *MsgPool) Acquire() *Message {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		*m = Message{}
		return m
	}
	return &Message{}
}

// Release recycles m onto the free list. Releasing a message that is
// already pooled is a lifecycle violation — almost always a double Consume
// — and panics so the misuse is caught at its source rather than surfacing
// later as two in-flight transactions sharing one message.
func (p *MsgPool) Release(m *Message) {
	if m == nil {
		panic("noc: Release of nil message")
	}
	if m.pooled {
		panic(fmt.Sprintf("noc: message %d released twice (double Consume?)", m.ID))
	}
	m.pooled = true
	p.free = append(p.free, m)
}

// FreeLen returns the number of messages currently on the free list.
func (p *MsgPool) FreeLen() int { return len(p.free) }

// DeliverFunc receives a message at its destination cluster.
type DeliverFunc func(*Message)

// Network is the interface the cluster hub uses to communicate. Both optical
// and electrical interconnects implement it.
type Network interface {
	// Name identifies the network ("xbar", "hmesh", "lmesh", ...).
	Name() string
	// Clusters returns the number of endpoints.
	Clusters() int
	// Acquire returns a zeroed message from the network's free list for the
	// caller to fill and Send. Implementations embed MsgPool, which provides
	// it (and whose Release their Consume calls to close the cycle).
	Acquire() *Message
	// Send injects msg. It returns false when the source's injection queue is
	// full; the caller must retry later (back pressure).
	Send(msg *Message) bool
	// SetDeliver installs the delivery callback for a destination cluster.
	SetDeliver(cluster int, fn DeliverFunc)
	// Consume returns one receive-buffer credit at cluster after the hub has
	// drained the delivered message m. Every delivery must eventually be
	// matched by exactly one Consume, or the network wedges — which is
	// precisely the back-pressure the paper models with finite buffers. The
	// message identifies which buffer pool (virtual network) the freed slot
	// belongs to, and Consume is also the recycle point: the network returns
	// m to its free list, so the consumer must not touch it afterwards.
	Consume(cluster int, m *Message)
	// Stats returns the network's delivery counters.
	Stats() Stats
}

// Resetter is the optional interface of networks that can return to their
// just-constructed state in place, retaining grown buffer capacity. The
// sweep engine uses it to reuse one network (and its whole System) across
// cells of a configuration instead of rebuilding, which must be
// behaviourally indistinguishable from a fresh build — the repo's
// byte-identical determinism contract extends to pooled reuse.
type Resetter interface {
	// Reset restores construction-time state: empty queues, full credit
	// pools, zeroed statistics. Messages still held by the free-list pools
	// stay pooled (capacity is the one thing reuse keeps).
	Reset()
}

// Stats aggregates the counters every network implementation maintains.
type Stats struct {
	Messages      uint64
	Bytes         uint64
	HopTraversals uint64 // mesh only: sum over messages of per-hop link uses
}

// Valid reports whether a message is internally consistent for a network of
// n clusters. It inlines into the senders' injection hot paths; on failure
// they call Validate for the descriptive error.
func Valid(m *Message, n int) bool {
	return m != nil && uint(m.Src) < uint(n) && uint(m.Dst) < uint(n) && m.Size > 0
}

// Validate checks a message for internal consistency against a network of n
// clusters, returning a descriptive error for invalid input.
func Validate(m *Message, n int) error {
	if !Valid(m, n) {
		return validateError(m, n)
	}
	return nil
}

// validateError builds Validate's descriptive error off the hot path.
func validateError(m *Message, n int) error {
	if m == nil {
		return fmt.Errorf("noc: nil message")
	}
	if m.Src < 0 || m.Src >= n {
		return fmt.Errorf("noc: message %d source %d out of range [0,%d)", m.ID, m.Src, n)
	}
	if m.Dst < 0 || m.Dst >= n {
		return fmt.Errorf("noc: message %d destination %d out of range [0,%d)", m.ID, m.Dst, n)
	}
	return fmt.Errorf("noc: message %d has non-positive size %d", m.ID, m.Size)
}
