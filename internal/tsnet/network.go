// Package tsnet implements the paper's primary contribution: a broadcast
// address network that delivers transactions as fast as the wires allow
// and restores a total order at the endpoints using logical timestamps.
//
// Logical time is maintained implicitly (Section 2.2): a transaction
// carries only a slack field; switches exchange tokens, and a switch's
// guarantee time (GT) is the number of tokens it has propagated. The
// in-flight slack adjustment follows the paper's recurrence
//
//	S_new = S_old + dGT + dD
//
// with three cases: +tokenCount on switch entry (tokens the transaction
// moves past), -1 whenever the switch propagates a token past a buffered
// transaction, and +dD per output branch of an unbalanced broadcast tree.
// The invariant S >= 0 always holds; a zero-slack buffered transaction
// blocks token propagation (the on-time delivery guarantee).
//
// Endpoints insert arriving transactions into a priority queue and process
// them at their ordering time, identically ordered everywhere (ties broken
// by source ID then per-source sequence).
//
// Every link transit, a token's or a transaction copy's, waits a fixed
// latency, so the kernel would dispatch the transits sent in one event
// onto links of one latency back to back. The network delivers each
// such run as one kernel event, a wave (see wave), that runs the
// transits in send order through the same arrival code. A send joins a
// wave only while the wave is still the newest event on its latency's
// kernel lane (sim.Kernel.NewestOnLane), so nothing can run between
// its transits and the dispatch order is exactly the per-event one;
// only the event count falls. Joining needs two more conditions: no
// probe, which counts events, and a nonzero handler handoff delay Dovh
// unlike every link latency, so a link wave never runs protocol code
// that could end a RunWhile loop in its middle. Otherwise every send is
// a wave of one — the per-event path, through the same code, which the
// differential tests keep as the oracle.
//
// Handler handoffs form waves by the same rule. The paper's endpoints
// all process an ordered transaction at the same logical time, so in an
// uncontended run the handoffs of one broadcast, each Dovh after its
// endpoint's tick, fall back to back on the Dovh lane; a handoff wave
// carries them as one kernel event, and is a wave of one exactly when
// link waves are. A handoff does run protocol code, which may end the
// RunWhile loop of a simulation phase, so a handoff wave delivers one
// handoff per dispatch and resumes itself with sim.Kernel.Again while
// handoffs remain. The loop checks its condition between handoffs, as
// between separate events, and a stop leaves the rest pending first in
// line at the same time — where the per-event path leaves the remaining
// handoff events — so the next loop runs them in the same order. Only
// the count of kernel events differs, since a resumed part is not one.
//
// In an uncontended network that forms waves, the token system runs on
// its own and soon repeats; the token clock (see tokenClock) then
// replays recorded token waves instead of propagating token by token,
// checking each wave against the recording before applying it.
//
// The implementation is allocation-free at steady state: transaction
// copies travel by value inside recycled waves, per-port switch state
// lives in dense slices indexed by local port position, the endpoint
// reorder queues are hand-rolled heaps of inline values, and every
// event is a typed kernel event rather than a closure. The Verify
// instrumentation fields live behind a debug pointer that unverified
// runs never touch.
package tsnet

import (
	"fmt"
	"slices"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// Config controls the address network.
type Config struct {
	// Params supplies link and overhead latencies.
	Params timing.Params
	// InitialSlack is the non-negative slack S a source assigns at
	// injection. "Setting S to a small positive value allows GTs to
	// advance during moderate network contention without unduly delaying
	// destination processing."
	InitialSlack int
	// TokensPerPort is the number of tokens each input port starts with
	// (the paper: "one (or more)"). More tokens let GT run further ahead.
	TokensPerPort int
	// Contention, when true, serializes each switch output port: one
	// transaction occupies an output for one switch delay
	// (Params.Dswitch). The paper's evaluation runs uncontended;
	// contention mode exercises the buffering, token passing and stall
	// machinery (Figure 1) and is used by ablations.
	Contention bool
	// Verify enables internal assertions: every transaction must be
	// processed at exactly its ordering time, with non-negative slack
	// throughout. The tsnet and protocol test suites keep it on;
	// experiment runs (system.DefaultConfig) leave it off so production
	// figure runs skip the consensus bookkeeping entirely.
	Verify bool
	// Probe, when non-nil, records deterministic telemetry: per-link
	// transit counts, buffer and reorder-queue occupancy, and token
	// stall episodes. Every call site is nil-guarded (the txnDebug
	// pattern), so uninstrumented runs pay one branch per site.
	Probe *obs.Probe
}

// DefaultConfig returns the configuration used for the paper's
// experiments: slack 1, one token per port, no contention modelling.
// Verify is on — this constructor is the entry point of the network and
// protocol test suites; experiment runs disable it through
// system.Config.
func DefaultConfig() Config {
	return Config{
		Params:        timing.Default(),
		InitialSlack:  1,
		TokensPerPort: 1,
		Verify:        true,
	}
}

// OrderedHandler receives transactions in the global logical order.
type OrderedHandler func(src int, seq uint64, payload any, arrived sim.Time)

// PeekHandler observes a transaction when it arrives at an endpoint,
// before its ordering time. Implements the paper's optimization hooks:
// controllers may begin prefetching (optimization 1), and may return true
// to consume the transaction early (optimization 2) when its effect is
// order-independent (blocks in S, I, or not present). A consumed
// transaction is not enqueued and its OrderedHandler never fires.
//
// slackTicks is the transaction's remaining slack at arrival: its ordering
// time is the endpoint's current GT plus slackTicks. Protocols use it to
// guard early consumption: consuming is only safe when no transaction this
// node could inject from now on can possibly order before this one, i.e.
// when slackTicks is strictly below the minimum OT distance of a fresh
// injection (TokensPerPort*Dmax + InitialSlack).
type PeekHandler func(src int, seq uint64, payload any, slackTicks int) (consumed bool)

// txnDebug carries the Verify-only instrumentation of an injection,
// shared by all its copies: the formula ordering time, and the ordering
// time the first endpoint computed, against which every other endpoint
// is checked — identical ordering times are what guarantee the global
// total order. Unverified runs leave dbg nil and never touch any of it.
type txnDebug struct {
	ot  uint64 // formula ordering time GT_src + Dmax + S
	set bool   // due holds the first endpoint's ordering time
	due uint64
}

// txn is an in-flight copy of an address transaction. Broadcast fan-out
// duplicates the copy per branch; each copy carries its own slack. mask is
// the destination set (all ones for a broadcast): switches prune branches
// whose reach does not intersect it, which never changes a surviving
// copy's path, so ordering times remain globally consistent between
// multicasts and broadcasts.
//
// Copies travel by value, inline in the wave that carries them across
// a link (see hop), so a steady-state broadcast allocates nothing.
type txn struct {
	src     int
	seq     uint64
	slack   int
	mask    uint64
	payload any
	sent    sim.Time
	dbg     *txnDebug
}

// linkMeta is the precomputed per-link delivery information consulted on
// every transaction and token hop: the link latency and the destination,
// plus the link's position within its destination switch's input list
// and its source switch's output list (the indexes of the dense per-port
// state slices).
type linkMeta struct {
	lat      sim.Duration
	toSwitch bool
	toIndex  int32
	inPos    int32 // position in To-switch's In list (when toSwitch)
	outPos   int32 // position in From-switch's Out list (when From is a switch)
	lane     int32 // index of lat among the network's distinct link latencies
}

// Network is a timestamp-snooping address network over a topology.
type Network struct {
	k       *sim.Kernel
	topo    *topology.Topology
	cfg     Config
	traffic *stats.Traffic
	run     *stats.Run // optional; ordering-delay and occupancy stats
	probe   *obs.Probe // optional; deterministic telemetry (Config.Probe)

	switches  []*swState
	endpoints []*epState
	nextSeq   []uint64
	links     []linkMeta

	// waves reports whether sends and handoffs may join an open wave
	// (see wave); when false each is a wave of one. open[lane] is the
	// wave most recently scheduled on each link-latency lane, laneLat[lane]
	// its delay, and open[handoffLane] the newest handoff wave; freeWaves
	// recycles dispatched waves with their slices' capacity.
	waves     bool
	open      []*wave
	laneLat   []sim.Duration
	freeWaves []*wave

	// clock replays the token system of an uncontended network that
	// forms waves (nil otherwise); see tokenClock.
	clock *tokenClock

	started bool

	// TestHook, when non-nil, observes every ordered processing event:
	// (endpoint, source, seq, endpoint GT at processing, debug OT).
	TestHook func(ep, src int, seq uint64, gt, ot uint64)
}

// New builds the address network. run may be nil.
func New(k *sim.Kernel, topo *topology.Topology, cfg Config, traffic *stats.Traffic, run *stats.Run) *Network {
	if cfg.InitialSlack < 0 {
		panic("tsnet: negative initial slack")
	}
	if cfg.TokensPerPort < 1 {
		panic("tsnet: TokensPerPort must be >= 1")
	}
	// Unreachable from a validated spec (spec.Validate caps the nodes):
	// broadcast trees reach only the endpoints their masks can name.
	if topo.Nodes() > topology.MaxNodes {
		panic(fmt.Sprintf("tsnet: endpoint masks limited to %d endpoints, got %d", topology.MaxNodes, topo.Nodes()))
	}
	n := &Network{
		k:       k,
		topo:    topo,
		cfg:     cfg,
		traffic: traffic,
		run:     run,
		probe:   cfg.Probe,
		nextSeq: make([]uint64, topo.Nodes()),
	}
	n.links = make([]linkMeta, len(topo.Links()))
	for i, l := range topo.Links() {
		lat := sim.Duration(l.Cost) * cfg.Params.Dswitch
		lane := slices.Index(n.laneLat, lat)
		if lane < 0 {
			lane = len(n.laneLat)
			n.laneLat = append(n.laneLat, lat)
		}
		n.links[i] = linkMeta{
			lat:      lat,
			toSwitch: l.To.Kind == topology.KindSwitch,
			toIndex:  int32(l.To.Index),
			lane:     int32(lane),
		}
	}
	n.open = make([]*wave, len(n.laneLat)+1)
	// Every link transit (a transaction copy's or a token's) and every
	// handler handoff waits a fixed delay, so each distinct one gets a
	// kernel lane and skips the event heap.
	for _, d := range n.laneLat {
		k.DeclareDelay(d)
	}
	if cfg.Params.Dovh > 0 {
		k.DeclareDelay(cfg.Params.Dovh)
	}
	// Sends and handoffs join waves only when a link wave never runs
	// protocol code — every handoff waits Dovh > 0 on a lane of its own —
	// and no probe counts events: then merging changes nothing a caller
	// can observe.
	n.waves = n.probe == nil && cfg.Params.Dovh > 0 && !slices.Contains(n.laneLat, cfg.Params.Dovh)
	for _, sw := range topo.Switches() {
		for pos, id := range sw.In {
			n.links[id].inPos = int32(pos)
		}
		for pos, id := range sw.Out {
			n.links[id].outPos = int32(pos)
		}
	}
	if n.probe != nil {
		// Size the probe's dense per-link/per-switch state once, at
		// build time — the probe's only allocations.
		latPS := make([]int64, len(n.links))
		for i := range n.links {
			latPS[i] = int64(n.links[i].lat)
		}
		n.probe.SizeNetwork(latPS, topo.NumSwitches())
	}
	ports := 0
	for _, sw := range topo.Switches() {
		ports += len(sw.In)
	}
	counters := make([]int, 0, ports)
	n.switches = make([]*swState, topo.NumSwitches())
	for i := range n.switches {
		lo := len(counters)
		counters = counters[:lo+len(topo.Switches()[i].In)]
		n.switches[i] = newSwState(n, i, counters[lo:len(counters):len(counters)])
	}
	if n.waves && !cfg.Contention {
		n.clock = newTokenClock(counters)
	}
	n.endpoints = make([]*epState, topo.Nodes())
	for i := range n.endpoints {
		n.endpoints[i] = &epState{net: n, id: i}
	}
	return n
}

// Register installs the ordered handler (required) and the optional peek
// handler for endpoint ep.
func (n *Network) Register(ep int, ordered OrderedHandler, peek PeekHandler) {
	e := n.endpoints[ep]
	if e.handler != nil {
		panic(fmt.Sprintf("tsnet: endpoint %d registered twice", ep))
	}
	e.handler = ordered
	e.peek = peek
}

// Start seeds the initial tokens ("each node and switch begin operation
// with one (or more) tokens on each input port") and begins logical time.
// Call after all endpoints are registered.
func (n *Network) Start() {
	if n.started {
		panic("tsnet: Start called twice")
	}
	n.started = true
	for _, sw := range n.switches {
		for i := range sw.tokens {
			sw.tokens[i] = n.cfg.TokensPerPort
		}
	}
	for _, e := range n.endpoints {
		// Initial tokens mimic a legal snapshot of a running system: a
		// token per input port is either in flight on a real link or
		// standing at the next consumer. For an endpoint whose ejection
		// link has zero cost (torus: on-die), its "in-flight" token is the
		// standing credit already placed at its switch, so the endpoint
		// itself starts with none; giving it one would inject a surplus
		// token into the zero-latency loop and skew logical time.
		if n.topo.Link(n.topo.EndpointIn(e.id)).Cost > 0 {
			e.credits = n.cfg.TokensPerPort
		}
	}
	// Kick the system: endpoints tick on their initial credits; switches
	// attempt their first propagation.
	n.k.AtCall(n.k.Now(), startNetwork, n, nil, 0)
}

// startNetwork is the typed kernel event that kicks the system at start
// time: a0 is the Network. Endpoints tick on their initial credits and
// switches attempt their first propagation.
func startNetwork(a0, a1 any, i0 int64) {
	n := a0.(*Network)
	for _, e := range n.endpoints {
		for e.credits > 0 {
			e.credits--
			e.tick()
		}
	}
	for _, sw := range n.switches {
		sw.tryPropagate()
	}
}

// GT returns endpoint ep's guarantee time (ticks performed).
func (n *Network) GT(ep int) uint64 { return n.endpoints[ep].gt }

// QueueLen returns the current reorder-queue depth at endpoint ep.
func (n *Network) QueueLen(ep int) int { return n.endpoints[ep].queue.len() }

// Inject broadcasts an address transaction from src. It returns the
// per-source sequence number that, with src, names the transaction in the
// global order. The traffic accountant is charged for the whole broadcast
// tree at injection.
func (n *Network) Inject(src int, payload any) uint64 {
	return n.inject(src, ^uint64(0), payload)
}

// InjectTo multicasts an address transaction from src to the endpoint set
// mask (a bitmask; bit i = endpoint i). The transaction occupies the
// same slot in the global logical order a broadcast would — only the
// delivery set shrinks — so multicasts and broadcasts interleave in one
// total order (the property multicast snooping depends on). Traffic is
// charged for the pruned tree only.
func (n *Network) InjectTo(src int, mask uint64, payload any) uint64 {
	if mask == 0 {
		panic("tsnet: empty multicast mask")
	}
	return n.inject(src, mask, payload)
}

func (n *Network) inject(src int, mask uint64, payload any) uint64 {
	if !n.started {
		panic("tsnet: Inject before Start")
	}
	seq := n.nextSeq[src]
	n.nextSeq[src]++
	tree := n.topo.BroadcastTree(src)
	if mask == ^uint64(0) {
		n.traffic.Add(stats.ClassRequest, tree.TotalLinks, timing.CtrlBytes)
	} else {
		n.traffic.Add(stats.ClassRequest, n.topo.MulticastLinks(src, mask), timing.CtrlBytes)
	}

	// With k tokens per input port, guarantee times advance k ticks per
	// link-transit time, so the logical pipeline depth of a link is k
	// ticks: Dmax and every dD are scaled accordingly (k=1 reproduces the
	// paper's presentation exactly).
	k := n.cfg.TokensPerPort
	t := txn{
		src:     src,
		seq:     seq,
		slack:   n.cfg.InitialSlack + tree.InjectDeltaD*k,
		mask:    mask,
		payload: payload,
		sent:    n.k.Now(),
	}
	if n.cfg.Verify {
		// OT = GT_source + Dmax + S, in endpoint tick units. (Standing
		// tokens on a zero-cost injection link can shift the realized
		// ordering time by up to k ticks; arrival checks allow exactly
		// that.)
		t.dbg = &txnDebug{ot: n.endpoints[src].gt + uint64(tree.MaxDepth*k) + uint64(n.cfg.InitialSlack)}
	}
	n.sendOnLink(n.topo.EndpointOut(src), t)
	return seq
}

// wave is one kernel event delivering a run of link transits that
// complete at the same time on links of one latency — either tokens
// (token wave) or transaction copies (hops), never both — or a run of
// handler handoffs (handoff wave). A send or handoff joins the newest
// wave on its delay's lane while that wave is still the lane's newest
// pending event (sim.Kernel.NewestOnLane); the kernel would have
// dispatched them back to back in that order, so the wave runs them
// back to back in that order and no output changes.
type wave struct {
	at       sim.Time
	seq      uint64
	token    bool
	tokens   []topology.LinkID
	hops     []hop
	handoffs []handoff
	next     int // handoffs already delivered
}

// hop is one transaction copy crossing a link, held by value so the
// copy needs no allocation or free list.
type hop struct {
	link topology.LinkID
	t    txn
}

// handoff is one ordered transaction waiting out the network-exit
// delay before its endpoint's handler receives it.
type handoff struct {
	ep *epState
	q  queued
}

// sendOnLink sends a transaction copy across a link.
func (n *Network) sendOnLink(id topology.LinkID, t txn) {
	w := n.waveFor(id, false)
	w.hops = append(w.hops, hop{link: id, t: t})
}

// sendToken sends one token across a link.
func (n *Network) sendToken(id topology.LinkID) {
	w := n.waveFor(id, true)
	w.tokens = append(w.tokens, id)
}

// waveFor returns the wave a send on link id joins.
func (n *Network) waveFor(id topology.LinkID, token bool) *wave {
	m := &n.links[id]
	return n.openWave(int(m.lane), m.lat, token, deliverWave)
}

// handoffLane is the open slot of the handoff waves, after the links'.
func (n *Network) handoffLane() int { return len(n.laneLat) }

// openWave returns the wave a send or handoff d ahead joins: the open
// wave of lane when it is of the same kind, due at the same time and
// still the newest event on its delay's kernel lane, otherwise a freshly
// scheduled one that fn delivers.
func (n *Network) openWave(lane int, d sim.Duration, token bool, fn sim.EventFn) *wave {
	at := n.k.Now() + d
	if n.waves {
		if w := n.open[lane]; w != nil && w.at == at && w.token == token {
			if seq, ok := n.k.NewestOnLane(d); ok && seq == w.seq {
				return w
			}
		}
	}
	var w *wave
	if k := len(n.freeWaves); k > 0 {
		w = n.freeWaves[k-1]
		n.freeWaves = n.freeWaves[:k-1]
	} else {
		w = &wave{}
	}
	w.at, w.token = at, token
	n.k.AtCall(at, fn, n, w, 0)
	if n.waves {
		w.seq, _ = n.k.NewestOnLane(d)
		n.open[lane] = w
	}
	return w
}

// deliverWave is the typed kernel event completing a wave's link
// transits in send order: a0 is the Network, a1 the wave.
func deliverWave(a0, a1 any, i0 int64) {
	n := a0.(*Network)
	w := a1.(*wave)
	c := n.clock
	if c != nil && w.token && c.replay(n, w) {
		n.recycle(w)
		return
	}
	p := n.probe
	for _, id := range w.tokens {
		if p != nil {
			p.Event(obs.EvLinkToken)
			p.LinkToken(int(id))
		}
		m := &n.links[id]
		if m.toSwitch {
			n.switches[m.toIndex].arriveToken(int(m.inPos))
		} else {
			n.endpoints[m.toIndex].arriveToken()
		}
	}
	for i := range w.hops {
		h := &w.hops[i]
		if p != nil {
			p.Event(obs.EvLinkTxn)
			p.LinkTxn(int(h.link))
		}
		m := &n.links[h.link]
		if m.toSwitch {
			n.switches[m.toIndex].arriveTxn(h.link, &h.t)
		} else {
			n.endpoints[m.toIndex].arriveTxn(&h.t)
		}
	}
	if c != nil && c.recorded {
		c.finish(n)
	}
	n.recycle(w)
}

// deliverHandoff is the typed kernel event completing a handoff wave's
// handler handoffs in order, one per dispatch: a0 is the Network, a1
// the wave. While handoffs remain it resumes with sim.Kernel.Again, so
// a handler that ends the dispatching RunWhile loop leaves the rest
// pending exactly where separate handoff events would be.
func deliverHandoff(a0, a1 any, i0 int64) {
	n := a0.(*Network)
	w := a1.(*wave)
	h := w.handoffs[w.next]
	if w.next++; w.next < len(w.handoffs) {
		n.k.Again()
	} else {
		n.recycle(w)
	}
	if p := n.probe; p != nil {
		p.Event(obs.EvOrderedHandoff)
	}
	h.ep.handler(h.q.src, h.q.seq, h.q.payload, h.q.arrived)
}

// recycle returns a dispatched wave to the free list, keeping its
// slices' capacity; cleared hops and handoffs retain no payloads.
func (n *Network) recycle(w *wave) {
	clear(w.hops)
	clear(w.handoffs)
	w.tokens, w.hops, w.handoffs, w.next = w.tokens[:0], w.hops[:0], w.handoffs[:0], 0
	n.freeWaves = append(n.freeWaves, w)
}

// epState is an endpoint network interface: a one-input, one-output node
// that maintains its GT the same way switches do and sorts arriving
// transactions back into the global order.
type epState struct {
	net     *Network
	id      int
	gt      uint64
	credits int
	queue   reorderQueue
	handler OrderedHandler
	peek    PeekHandler
}

func (e *epState) arriveToken() {
	// Endpoints consume tokens immediately: each token is one GT tick.
	e.tick()
}

// tick advances the endpoint's guarantee time by one: process every
// transaction with ordering time strictly below the new GT, then pass a
// token onward to the adjacent switch.
//
// The strict inequality implements the paper's guarantee-time definition
// ("GT ... is guaranteed to be less than the OTs of any transactions that
// may later be received"): a transaction whose slack reached zero in
// flight arrives after the token that matched its ordering time but —
// because the S >= 0 invariant stops any further token from passing it —
// always before the next one. Draining OT < GT at each tick therefore
// processes every transaction in a batch that is identical at every
// endpoint; draining OT <= GT could split same-OT transactions across
// batches differently at different endpoints and invert the tie-break
// order.
func (e *epState) tick() {
	e.gt++
	e.drain()
	if c := e.net.clock; c != nil && c.recorded {
		c.actors = append(c.actors, -int32(e.id)-1)
	}
	e.net.sendToken(e.net.topo.EndpointOut(e.id))
}

// drain processes every queued transaction due before the endpoint's
// guarantee time.
func (e *epState) drain() {
	for {
		q, ok := e.queue.popDue(e.gt - 1)
		if !ok {
			break
		}
		e.process(q)
	}
	if e.net.run != nil {
		e.net.run.ReorderOccupancy.Set(e.net.k.Now(), e.queue.len())
	}
	if p := e.net.probe; p != nil {
		p.ReorderOcc(e.queue.len())
	}
}

func (e *epState) arriveTxn(t *txn) {
	if t.slack < 0 {
		panic(fmt.Sprintf("tsnet: negative slack %d at endpoint %d", t.slack, e.id))
	}
	due := e.gt + uint64(t.slack)
	if e.net.cfg.Verify {
		// Every endpoint must reconstruct the identical ordering time:
		// this is the property that makes the reorder queues agree on a
		// single global order.
		if !t.dbg.set {
			t.dbg.set = true
			t.dbg.due = due
		} else if t.dbg.due != due {
			panic(fmt.Sprintf("tsnet: endpoint %d txn %d/%d ordering time %d disagrees with consensus %d (slack %d, gt %d)",
				e.id, t.src, t.seq, due, t.dbg.due, t.slack, e.gt))
		}
		// And it must match the paper's formula, shifted no later than the
		// standing-token phase of a zero-cost injection link (at most
		// TokensPerPort ticks) and never earlier.
		if due < t.dbg.ot || due > t.dbg.ot+uint64(e.net.cfg.TokensPerPort) {
			panic(fmt.Sprintf("tsnet: endpoint %d txn %d/%d due tick %d outside [OT, OT+%d], OT %d",
				e.id, t.src, t.seq, due, e.net.cfg.TokensPerPort, t.dbg.ot))
		}
	}
	if e.peek != nil {
		if e.peek(t.src, t.seq, t.payload, t.slack) {
			if e.net.run != nil {
				e.net.run.EarlyProcessed++
			}
			return
		}
	}
	// Transactions are always enqueued and drained at tick boundaries,
	// even when already due: processing strictly in (OT, source, sequence)
	// key order at every endpoint guarantees the orders agree globally,
	// which immediate on-arrival processing could violate for same-OT
	// transactions arriving in different physical orders.
	e.queue.push(queued{
		dueTick: due,
		src:     t.src,
		seq:     t.seq,
		payload: t.payload,
		arrived: e.net.k.Now(),
	})
	if e.net.run != nil {
		e.net.run.ReorderOccupancy.Set(e.net.k.Now(), e.queue.len())
	}
	if p := e.net.probe; p != nil {
		p.ReorderOcc(e.queue.len())
		// One addr_flight span per endpoint delivery: this copy's
		// injection-to-arrival transit, observed at the arriving node.
		p.Span(obs.SpanAddrFlight, int32(e.id), obs.NetLane(obs.SpanAddrFlight), int32(t.src), t.seq,
			int64(t.sent), int64(e.net.k.Now()-t.sent))
	}
}

func (e *epState) process(q queued) {
	if e.net.run != nil {
		e.net.run.OrderingDelay.Observe(e.net.k.Now() - q.arrived)
	}
	if p := e.net.probe; p != nil {
		// reorder_dwell: physical arrival to in-order processing at
		// this endpoint's reorder queue.
		p.Span(obs.SpanReorderDwell, int32(e.id), obs.NetLane(obs.SpanReorderDwell), int32(q.src), q.seq,
			int64(q.arrived), int64(e.net.k.Now()-q.arrived))
	}
	if e.net.TestHook != nil {
		e.net.TestHook(e.id, q.src, q.seq, e.gt, q.dueTick)
	}
	if e.handler == nil {
		panic(fmt.Sprintf("tsnet: endpoint %d has no ordered handler", e.id))
	}
	// Hand off to the protocol controller after the network-exit overhead
	// (Dovh), in a handoff wave. All handoffs share the same delay, so the
	// controller sees transactions in exactly the logical order.
	if d := e.net.cfg.Params.Dovh; d > 0 {
		n := e.net
		w := n.openWave(n.handoffLane(), d, false, deliverHandoff)
		w.handoffs = append(w.handoffs, handoff{ep: e, q: q})
		return
	}
	e.handler(q.src, q.seq, q.payload, q.arrived)
}
