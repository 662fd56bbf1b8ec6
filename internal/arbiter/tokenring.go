// Package arbiter implements Corona's distributed, all-optical, token-based
// channel arbitration (Section 3.2.3 and Figure 5 of the paper).
//
// One token per channel circulates an arbitration waveguide as a short pulse
// in a dedicated wavelength. A cluster that wants a channel diverts
// (completely removes) the channel's token as it passes, which constitutes an
// exclusive grant; when the cluster finishes transmitting it re-injects the
// token at its own position, so the token travels in parallel with the tail
// of the message. Detectors are positioned so a cluster cannot re-acquire a
// token it just injected until the token has completed one full revolution,
// which makes the discipline round-robin fair under contention.
//
// Timing: light makes a full revolution of the 64-cluster ring in 8 clocks
// (2 cm of waveguide per 5 GHz clock), i.e. the token moves 8 cluster
// positions per cycle. An uncontested acquisition therefore waits at most
// 8 cycles, exactly the figure the paper quotes.
package arbiter

import (
	"fmt"

	"corona/internal/sim"
)

// GrantFunc is invoked when a cluster's request for a channel is granted.
type GrantFunc func()

// GrantHandler is the typed counterpart of GrantFunc: components on the
// kernel's zero-allocation fast path implement it (usually on the component
// struct itself) and request with RequestEvent, avoiding a closure per
// arbitration.
type GrantHandler interface {
	// Granted reports that cluster now holds channel's token.
	Granted(channel, cluster int)
}

type waiter struct {
	cluster int
	grant   GrantFunc
	h       GrantHandler
}

type tokenChannel struct {
	// holder is the cluster currently owning the token, or -1 if the token
	// is circulating.
	holder int
	// freePos/freeAt give the token's position when it was last released:
	// at time freeAt it was at cluster position freePos, moving in cyclically
	// increasing cluster order.
	freePos int
	freeAt  sim.Time
	// lastReleaser cannot re-acquire before lastRelease + one revolution.
	lastReleaser int
	lastRelease  sim.Time
	// pending requesters, in arrival order (grant order is ring order, not
	// arrival order; arrival order only breaks exact ties deterministically).
	pending []waiter
	// gen invalidates in-flight grant events after a re-commit.
	gen uint64
	// committed is true when a grant event is scheduled; commitCluster and
	// commitWait describe that commitment for the typed grant event.
	committed     bool
	commitCluster int
	commitWait    sim.Time
}

// TokenRing arbitrates nchan channels among n clusters.
type TokenRing struct {
	k     *sim.Kernel
	n     int // clusters (ring positions)
	speed int // cluster positions the token advances per cycle
	chans []tokenChannel

	// Grants counts total grants, for utilization statistics.
	Grants uint64
	// WaitCycles accumulates token acquisition wait, for Figure 10's queueing
	// component.
	WaitCycles uint64
}

// New returns a token ring arbitrating nchan channels among n clusters on
// kernel k. speed is the token's travel rate in cluster positions per cycle;
// Corona's is 8. The crossbar uses nchan == n (one channel per destination);
// the broadcast bus uses nchan == 1.
func New(k *sim.Kernel, n, nchan, speed int) *TokenRing {
	if n <= 0 || nchan <= 0 || speed <= 0 {
		panic(fmt.Sprintf("arbiter: invalid n=%d nchan=%d speed=%d", n, nchan, speed))
	}
	if nchan > 1<<16 {
		// grantEvent carries the channel index in the data word's low 16 bits.
		panic(fmt.Sprintf("arbiter: %d channels exceeds the %d-channel event encoding limit",
			nchan, 1<<16))
	}
	t := &TokenRing{k: k, n: n, speed: speed, chans: make([]tokenChannel, nchan)}
	for i := range t.chans {
		t.chans[i] = tokenChannel{
			holder:       -1,
			freePos:      i % n, // each token starts at its home cluster
			freeAt:       0,
			lastReleaser: -1,
		}
	}
	return t
}

// Channels returns the number of arbitrated channels.
func (t *TokenRing) Channels() int { return len(t.chans) }

// Reset returns every channel to its construction state and zeroes the
// counters, keeping grown pending-queue capacity.
func (t *TokenRing) Reset() {
	for i := range t.chans {
		c := &t.chans[i]
		clear(c.pending)
		*c = tokenChannel{
			holder:       -1,
			freePos:      i % t.n,
			lastReleaser: -1,
			pending:      c.pending[:0],
		}
	}
	t.Grants, t.WaitCycles = 0, 0
}

// Clusters returns the ring size.
func (t *TokenRing) Clusters() int { return t.n }

// RevolutionCycles returns the cycles for one full token revolution.
func (t *TokenRing) RevolutionCycles() sim.Time {
	return sim.Time((t.n + t.speed - 1) / t.speed)
}

// Holder returns the cluster holding channel's token, or -1 if free.
func (t *TokenRing) Holder(channel int) int { return t.chans[channel].holder }

// PendingCount returns the number of outstanding requests for channel.
func (t *TokenRing) PendingCount(channel int) int { return len(t.chans[channel].pending) }

// posAt returns the token's ring position at time now (only valid while the
// token is free).
func (c *tokenChannel) posAt(now sim.Time, n, speed int) int {
	elapsed := uint64(now - c.freeAt)
	return int((uint64(c.freePos) + elapsed*uint64(speed)) % uint64(n))
}

// Request asks for channel on behalf of cluster; grant runs when the token is
// diverted. Multiple outstanding requests from distinct clusters are fine; a
// cluster must not request a channel it already holds or has pending.
func (t *TokenRing) Request(channel, cluster int, grant GrantFunc) {
	t.request(channel, waiter{cluster: cluster, grant: grant})
}

// RequestEvent is Request on the typed fast path: h.Granted(channel, cluster)
// runs when the token is diverted, with no closure allocated.
func (t *TokenRing) RequestEvent(channel, cluster int, h GrantHandler) {
	t.request(channel, waiter{cluster: cluster, h: h})
}

func (t *TokenRing) request(channel int, w waiter) {
	cluster := w.cluster
	if channel < 0 || channel >= len(t.chans) || cluster < 0 || cluster >= t.n {
		panic(fmt.Sprintf("arbiter: request channel=%d cluster=%d out of range", channel, cluster))
	}
	c := &t.chans[channel]
	if c.holder == cluster {
		panic(fmt.Sprintf("arbiter: cluster %d re-requesting held channel %d", cluster, channel))
	}
	for _, p := range c.pending {
		if p.cluster == cluster {
			panic(fmt.Sprintf("arbiter: cluster %d duplicate request for channel %d", cluster, channel))
		}
	}
	c.pending = append(c.pending, w)
	if c.holder < 0 {
		t.commit(channel)
	}
}

// Release returns channel's token to the ring; cluster must be the holder.
// The token is re-injected at the releasing cluster's position.
func (t *TokenRing) Release(channel, cluster int) {
	c := &t.chans[channel]
	if c.holder != cluster {
		panic(fmt.Sprintf("arbiter: cluster %d releasing channel %d held by %d", cluster, channel, c.holder))
	}
	c.holder = -1
	c.freePos = cluster
	c.freeAt = t.k.Now()
	c.lastReleaser = cluster
	c.lastRelease = t.k.Now()
	c.gen++ // invalidate any stale events
	c.committed = false
	if len(c.pending) > 0 {
		t.commit(channel)
	}
}

// commit (re)schedules the grant for the pending requester the free token
// reaches first. Called whenever the pending set changes while the token is
// free. A later Request can pre-empt an in-flight commitment only if the new
// requester intercepts the token earlier — exactly what the optics do.
func (t *TokenRing) commit(channel int) {
	c := &t.chans[channel]
	now := t.k.Now()
	pos := c.posAt(now, t.n, t.speed)

	best := -1
	var bestETA sim.Time
	for i, w := range c.pending {
		dist := (w.cluster - pos) % t.n
		if dist < 0 {
			dist += t.n
		}
		// Token travel is floored, not rounded up: a hand-off to a nearby
		// cluster takes a fraction of a cycle in the optics (the token moves
		// `speed` positions per cycle), and rounding it up would halve the
		// achievable channel utilization under full contention — contradicting
		// the paper's "token transfer time is low and channel utilization is
		// high". Sub-cycle arrivals grant within the current cycle.
		eta := now + sim.Time(dist/t.speed)
		// Self-reacquire exclusion: the last releaser's detector cannot divert
		// its own token until one revolution after injection.
		if w.cluster == c.lastReleaser {
			min := c.lastRelease + t.RevolutionCycles()
			if eta < min {
				eta = min
			}
		}
		if best < 0 || eta < bestETA {
			best = i
			bestETA = eta
		}
	}
	if best < 0 {
		return
	}
	c.gen++
	c.committed = true
	c.commitCluster = c.pending[best].cluster
	c.commitWait = bestETA - now
	// The in-flight grant is a typed kernel event: the channel index and the
	// commit generation pack into the data word, and the commitment details
	// live on the channel, so no closure is allocated per arbitration.
	t.k.AtEvent(bestETA, (*grantEvent)(t), uint64(channel)|(c.gen&genMask)<<genShift)
}

// genMask truncates the commit generation to the data word's upper bits; a
// stale event could only alias a live commitment after 2^48 re-commits on one
// channel, far beyond any simulation's event budget.
const (
	genShift = 16
	genMask  = (1 << (64 - genShift)) - 1
)

// grantEvent is TokenRing's typed handler for committed grants.
type grantEvent TokenRing

// OnEvent diverts the token to the committed requester, unless a re-commit
// or a release race superseded this event.
func (g *grantEvent) OnEvent(_ sim.Time, data uint64) {
	t := (*TokenRing)(g)
	channel := int(data & (1<<genShift - 1))
	c := &t.chans[channel]
	if c.gen&genMask != data>>genShift || c.holder >= 0 {
		return // superseded by a re-commit or a release race
	}
	// Divert the token: exclusive grant.
	c.holder = c.commitCluster
	c.committed = false
	// Remove the waiter.
	var w waiter
	for i := range c.pending {
		if c.pending[i].cluster == c.commitCluster {
			w = c.pending[i]
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	t.Grants++
	t.WaitCycles += uint64(c.commitWait)
	if w.h != nil {
		w.h.Granted(channel, c.holder)
	} else {
		w.grant()
	}
}
