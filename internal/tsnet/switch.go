package tsnet

import (
	"fmt"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/topology"
)

// bufEntry is one broadcast-branch copy of a transaction held in a
// switch's (logically centralized) transaction buffer, waiting for its
// output port. Entries are stored inline in the buffer slice — the
// transaction's fields are copied in, so nothing refers to the wave
// that carried the arriving copy once it is recycled.
type bufEntry struct {
	branch  topology.Branch
	slack   int
	src     int
	seq     uint64
	mask    uint64
	payload any
	sent    sim.Time
	// enq is when the copy entered the buffer (contention mode); the
	// probe's buffer_dwell span measures enq to departure.
	enq sim.Time
	dbg *txnDebug
}

// swState is a network switch: token counters per input port, a
// transaction buffer, and the token-passing logic that maintains logical
// time. The switch is standard except for that logic, which runs in
// parallel with normal message routing (Section 2.2).
//
// All per-port state is held in dense slices indexed by the port's
// position in the switch's In/Out link lists (positions come from the
// Network's precomputed link metadata), so the hot path performs no map
// operations and the buffer reuses one backing array for the life of the
// run.
type swState struct {
	net *Network
	id  int

	in  []topology.LinkID // the switch's input links (shared with topology)
	out []topology.LinkID // the switch's output links (shared with topology)

	tokens []int // token counter per input port, indexed by In position (a window of the network's counters)

	// routes[src] is the branch list a transaction from src takes at this
	// switch (nil when the switch is not on src's broadcast tree),
	// flattened from the topology's per-tree route maps at construction.
	routes [][]topology.Branch

	// buffered holds branch copies waiting for an output port (only
	// non-empty in contention mode; uncontended switches are cut-through).
	buffered []bufEntry

	// Per-output-port serialization state (contention mode), indexed by
	// Out position.
	nextFree []sim.Time
	pending  []bool

	// props counts token propagations: the switch's implicit GT.
	props uint64
}

// newSwState builds switch id with tokens as its counters.
func newSwState(n *Network, id int, tokens []int) *swState {
	spec := n.topo.Switches()[id]
	s := &swState{
		net:      n,
		id:       id,
		in:       spec.In,
		out:      spec.Out,
		tokens:   tokens,
		nextFree: make([]sim.Time, len(spec.Out)),
		pending:  make([]bool, len(spec.Out)),
		routes:   make([][]topology.Branch, n.topo.Nodes()),
	}
	for src := 0; src < n.topo.Nodes(); src++ {
		s.routes[src] = n.topo.BroadcastTree(src).Route[id]
	}
	return s
}

// GT returns the switch's guarantee time (tokens propagated).
func (s *swState) GT() uint64 { return s.props }

// arriveToken handles a token arriving on the input port at position
// inPos of the switch's In list.
func (s *swState) arriveToken(inPos int) {
	s.tokens[inPos]++
	s.tryPropagate()
}

// arriveTxn handles a transaction copy arriving on input port in.
func (s *swState) arriveTxn(in topology.LinkID, t *txn) {
	// Case 1 of the slack recurrence: entering the switch, the
	// transaction moves past the tokens waiting on its input port, making
	// it earlier in logical time; slack increases to hold OT invariant.
	t.slack += s.tokens[s.net.links[in].inPos]

	branches := s.routes[t.src]
	if branches == nil {
		panic(fmt.Sprintf("tsnet: switch %d has no route for source %d", s.id, t.src))
	}
	for i := range branches {
		b := &branches[i]
		if b.Reach&t.mask == 0 {
			continue // multicast pruning: nothing downstream is a destination
		}
		e := bufEntry{
			branch:  *b,
			slack:   t.slack,
			src:     t.src,
			seq:     t.seq,
			mask:    t.mask,
			payload: t.payload,
			sent:    t.sent,
			dbg:     t.dbg,
		}
		if s.net.cfg.Contention {
			e.enq = s.net.k.Now()
			s.buffered = append(s.buffered, e)
			if p := s.net.probe; p != nil {
				p.BufferOcc(len(s.buffered))
			}
			s.kickPort(b.Link)
		} else {
			// Cut-through: zero dwell time in the buffer.
			s.depart(&e)
		}
	}
}

// depart sends a branch copy on its output link, applying case 3 of the
// recurrence: dD, the decrease in maximum remaining pipeline depth for
// this branch relative to the longest branch.
func (s *swState) depart(e *bufEntry) {
	out := txn{
		src:     e.src,
		seq:     e.seq,
		slack:   e.slack + e.branch.DeltaD*s.net.cfg.TokensPerPort,
		mask:    e.mask,
		payload: e.payload,
		sent:    e.sent,
		dbg:     e.dbg,
	}
	if out.slack < 0 {
		panic(fmt.Sprintf("tsnet: switch %d departing with negative slack %d", s.id, out.slack))
	}
	s.net.sendOnLink(e.branch.Link, out)
}

// servePortEvent is the typed kernel event backing kickPort: a0 is the
// swState, i0 the output LinkID.
func servePortEvent(a0, a1 any, i0 int64) {
	s := a0.(*swState)
	if p := s.net.probe; p != nil {
		p.Event(obs.EvPortService)
	}
	s.servePort(topology.LinkID(i0))
}

// kickPort schedules a service attempt for an output port (contention
// mode). At most one attempt is pending per port.
func (s *swState) kickPort(link topology.LinkID) {
	pos := s.net.links[link].outPos
	if s.pending[pos] {
		return
	}
	s.pending[pos] = true
	now := s.net.k.Now()
	at := s.nextFree[pos]
	if at < now {
		at = now
	}
	s.net.k.AtCall(at, servePortEvent, s, nil, int64(link))
}

// servePort dequeues the highest-priority waiting copy for link and sends
// it. "The arbitration logic gives precedence to zero-slack transactions,
// to speed token passing" — implemented as lowest-slack-first, stable by
// arrival.
func (s *swState) servePort(link topology.LinkID) {
	pos := s.net.links[link].outPos
	s.pending[pos] = false
	best := -1
	for i := range s.buffered {
		if s.buffered[i].branch.Link != link {
			continue
		}
		if best < 0 || s.buffered[i].slack < s.buffered[best].slack {
			best = i
		}
	}
	if best < 0 {
		return
	}
	e := s.buffered[best]
	// Splice the entry out in place: the backing array is reused, and the
	// vacated tail slot is zeroed so it does not retain payload references.
	n := len(s.buffered) - 1
	copy(s.buffered[best:], s.buffered[best+1:])
	s.buffered[n] = bufEntry{}
	s.buffered = s.buffered[:n]
	if p := s.net.probe; p != nil {
		p.BufferOcc(len(s.buffered))
		// buffer_dwell: how long this copy waited for its output port.
		// Switch ids overlap node ids, so switch spans use negative
		// pids (-(id+1)); the trace writer labels them "switch N".
		p.Span(obs.SpanBufferDwell, -int32(s.id)-1, obs.NetLane(obs.SpanBufferDwell),
			int32(e.src), e.seq, int64(e.enq), int64(s.net.k.Now()-e.enq))
	}
	s.nextFree[pos] = s.net.k.Now() + s.net.cfg.Params.Dswitch
	s.depart(&e)
	// The buffer shrank: a stalled propagation may now be possible.
	s.tryPropagate()
	// More work for this port?
	for i := range s.buffered {
		if s.buffered[i].branch.Link == link {
			s.kickPort(link)
			break
		}
	}
}

// tryPropagate performs as many token propagations as currently allowed.
// A switch may propagate a token whenever it has received a token from
// each input and all buffered transactions have non-zero slack. When it
// propagates, it sends a token on each output, decrements the slack of all
// buffered transactions (case 2 of the recurrence: the token moves past
// them, making them later in logical time), and decrements every input's
// token counter.
func (s *swState) tryPropagate() {
	for {
		ok := true
		for _, c := range s.tokens {
			if c == 0 {
				ok = false
				break
			}
		}
		stalledOnTxn := false
		if ok {
			for i := range s.buffered {
				if s.buffered[i].slack == 0 {
					// The S >= 0 invariant prohibits tokens from moving
					// past zero-slack transactions: stall GT until the
					// transaction departs.
					ok = false
					stalledOnTxn = true
					break
				}
			}
		}
		if !ok {
			// A token-wait episode starts when propagation is blocked by
			// a zero-slack buffered transaction (not by a mere token
			// shortage) and ends at the next successful propagation.
			if stalledOnTxn {
				if p := s.net.probe; p != nil {
					p.TokenStall(s.id, int64(s.net.k.Now()))
				}
			}
			return
		}
		for i := range s.tokens {
			s.tokens[i]--
		}
		for i := range s.buffered {
			s.buffered[i].slack--
		}
		s.props++
		if p := s.net.probe; p != nil {
			p.TokenAdvance(s.id, int64(s.net.k.Now()))
		}
		if c := s.net.clock; c != nil && c.recorded {
			c.actors = append(c.actors, int32(s.id))
		}
		for _, out := range s.out {
			s.net.sendToken(out)
		}
	}
}
