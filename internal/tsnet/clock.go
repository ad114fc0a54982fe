package tsnet

import (
	"slices"

	"tsnoop/internal/topology"
)

// tokenClock replays the token system of an uncontended network whose
// sends join waves (see wave). There, the token system is autonomous:
// switches buffer nothing, so a token wave's effect — which switches
// propagate, how the token counters change, which endpoints tick in
// which order, and which tokens it sends on — is a function of two
// things only: every switch's token counters when the wave starts, and
// the wave's contents. Transactions read the counters and the endpoint
// guarantee times but never change them.
//
// The clock records each token wave as a step: the counters and
// contents it started from, and its effect. Once a wave starts from the
// counters and contents of a recorded step, the steps from that one to
// the last recorded form a cycle that the token system repeats, and the
// clock replays it: each further token wave, after its contents are
// checked against the expected step, copies the step's resulting
// counters in, ticks the recorded endpoints in order — draining only
// non-empty reorder queues — and sends the recorded tokens, through
// the same wave rule as live sends. A wave that differs from the
// expected step (a transaction send landed between two tokens and split
// a wave) ends the replay; that wave runs live and detection starts
// over. Replay is exact by construction, because a step is applied only
// to the counters and contents it was recorded from.
//
// The one difference a replayed tick leaves is in
// stats.Run.ReorderOccupancy: a tick of an empty queue would set the
// run-wide level to 0, which never moves its peak, the one value any
// output reads.
type tokenClock struct {
	// counters holds every switch's token counters back to back; each
	// swState.tokens is a window of it.
	counters []int

	// The recording: steps index windows of the arenas below.
	steps    []clockStep
	pre      []int             // counters at each step's start
	links    []topology.LinkID // step contents and grouped sends
	ids      []int32           // ticked endpoints and propagating switches
	groups   []span            // links: per-lane runs of a step's sends
	seen     map[uint64]int32  // step start hash -> step index
	actors   []int32           // the recording wave's ticks (-ep-1) and propagations (switch)
	recorded bool              // the running wave is being recorded

	// Replay: the cycle is steps[first:], next the expected step.
	replaying   bool
	first, next int
}

// maxClockSteps bounds the recording; detection starts over when no
// cycle shows within it.
const maxClockSteps = 256

// span is a window [lo, hi) of a recording arena.
type span struct{ lo, hi int32 }

// clockStep is one recorded token wave.
type clockStep struct {
	pre      span // pre: counters at the start
	contents span // links: the wave's tokens
	ticks    span // ids: endpoints ticked, in order
	fires    span // ids: switches that propagated, once per propagation
	groups   span // groups: sends, grouped by link latency
}

func newTokenClock(counters []int) *tokenClock {
	return &tokenClock{counters: counters, seen: make(map[uint64]int32)}
}

// reset drops the recording and any replay.
func (c *tokenClock) reset() {
	c.steps = c.steps[:0]
	c.pre, c.links, c.ids, c.groups = c.pre[:0], c.links[:0], c.ids[:0], c.groups[:0]
	clear(c.seen)
	c.replaying = false
}

// hash mixes the counters and a wave's contents.
func (c *tokenClock) hash(tokens []topology.LinkID) uint64 {
	h := uint64(len(tokens))
	mix := func(v uint64) {
		h ^= v
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	for _, v := range c.counters {
		mix(uint64(v))
	}
	for _, id := range tokens {
		mix(uint64(id))
	}
	return h
}

// starts reports whether step i started from the current counters and
// the contents tokens.
func (c *tokenClock) starts(i int, tokens []topology.LinkID) bool {
	st := &c.steps[i]
	return slices.Equal(c.pre[st.pre.lo:st.pre.hi], c.counters) &&
		slices.Equal(c.links[st.contents.lo:st.contents.hi], tokens)
}

// replay runs the token wave w from the recording when it can and
// reports whether it did. Otherwise it prepares to record w, which the
// caller then runs live and closes with finish.
func (c *tokenClock) replay(n *Network, w *wave) bool {
	if c.replaying {
		if st := &c.steps[c.next]; slices.Equal(c.links[st.contents.lo:st.contents.hi], w.tokens) {
			c.apply(n)
			return true
		}
		c.reset()
	}
	h := c.hash(w.tokens)
	if i, ok := c.seen[h]; ok && c.starts(int(i), w.tokens) {
		c.replaying, c.first, c.next = true, int(i), int(i)
		c.apply(n)
		return true
	}
	if len(c.steps) == maxClockSteps {
		c.reset()
	}
	c.seen[h] = int32(len(c.steps))
	var st clockStep
	st.pre.lo = int32(len(c.pre))
	c.pre = append(c.pre, c.counters...)
	st.pre.hi = int32(len(c.pre))
	st.contents.lo = int32(len(c.links))
	c.links = append(c.links, w.tokens...)
	st.contents.hi = int32(len(c.links))
	c.steps = append(c.steps, st)
	c.actors = c.actors[:0]
	c.recorded = true
	return false
}

// finish closes the recording of the wave just run live.
func (c *tokenClock) finish(n *Network) {
	c.recorded = false
	st := &c.steps[len(c.steps)-1]
	st.ticks.lo = int32(len(c.ids))
	for _, a := range c.actors {
		if a < 0 {
			c.ids = append(c.ids, -a-1)
		}
	}
	st.ticks.hi = int32(len(c.ids))
	st.fires.lo = st.ticks.hi
	for _, a := range c.actors {
		if a >= 0 {
			c.ids = append(c.ids, a)
		}
	}
	st.fires.hi = int32(len(c.ids))
	// Sends, grouped by lane. Every send on one lane during one event
	// joins one wave, so grouping them keeps each lane's order, and
	// waves on different lanes are due at different times.
	st.groups.lo = int32(len(c.groups))
	for lane := range n.laneLat {
		lo := len(c.links)
		for _, a := range c.actors {
			if a < 0 {
				if id := n.topo.EndpointOut(int(-a - 1)); int(n.links[id].lane) == lane {
					c.links = append(c.links, id)
				}
				continue
			}
			for _, id := range n.switches[a].out {
				if int(n.links[id].lane) == lane {
					c.links = append(c.links, id)
				}
			}
		}
		if len(c.links) > lo {
			c.groups = append(c.groups, span{int32(lo), int32(len(c.links))})
		}
	}
	st.groups.hi = int32(len(c.groups))
}

// apply replays the expected step on the live network and advances.
func (c *tokenClock) apply(n *Network) {
	st := &c.steps[c.next]
	c.next++
	if c.next == len(c.steps) {
		c.next = c.first
	}
	// The step leaves the counters the next step in the cycle starts
	// from.
	post := &c.steps[c.next]
	copy(c.counters, c.pre[post.pre.lo:post.pre.hi])
	for _, s := range c.ids[st.fires.lo:st.fires.hi] {
		n.switches[s].props++
	}
	for _, ep := range c.ids[st.ticks.lo:st.ticks.hi] {
		e := n.endpoints[ep]
		e.gt++
		if e.queue.len() > 0 {
			e.drain()
		}
	}
	for _, g := range c.groups[st.groups.lo:st.groups.hi] {
		sends := c.links[g.lo:g.hi]
		w := n.waveFor(sends[0], true)
		w.tokens = append(w.tokens, sends...)
	}
}
