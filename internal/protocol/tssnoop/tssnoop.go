// Package tssnoop implements the paper's timestamp snooping coherence
// protocol: a write-invalidate MSI snooping protocol whose address
// transactions are broadcast over the logically ordered tsnet network and
// processed by every cache and memory controller in the identical total
// order (Section 3).
//
// Synchronous wired-OR owned/shared signals are impossible on a switched
// network, so the owned signal is replaced by the old Synapse scheme: one
// bit per block at memory records whether memory owns the block. Because
// every memory controller processes the same ordered transaction stream,
// it can also derive the identity of the current owner deterministically,
// which is what squashes stale writebacks consistently on the cache and
// memory sides without any global signal.
//
// The protocol implements both of the paper's optimizations:
//
//   - Optimization 1 (default on, as evaluated): memory and cache
//     controllers prefetch from DRAM/SRAM as soon as a transaction
//     arrives, but respond only once it is ordered.
//   - Optimization 2 (default off, as evaluated): other processors' early
//     transactions to blocks in S/I may be consumed before their ordering
//     time, guarded so that no transaction this node could still inject
//     can order before the consumed one.
package tssnoop

import (
	"fmt"
	"math/bits"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/network"
	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
	"tsnoop/internal/tsnet"
)

// Options configures the protocol.
type Options struct {
	// Net configures the timestamp-snooping address network.
	Net tsnet.Config
	// Cache is the per-node L2 geometry.
	Cache cache.Config
	// Prefetch enables optimization 1 (start DRAM/SRAM access on early
	// arrival). The paper's evaluation enables it.
	Prefetch bool
	// EarlyProcessing enables optimization 2 (consume order-insensitive
	// transactions before their ordering time). The paper's evaluation
	// disables it.
	EarlyProcessing bool
	// Multicast enables simplified multicast snooping, the first of the
	// paper's future-work directions ("we would like to implement
	// multicast snooping [9] on these networks to reduce transaction
	// bandwidth"). GETS transactions are multicast to a predicted
	// destination set (requester, home, and the predicted owner from
	// snooped GETX traffic) instead of broadcast; the home memory
	// controller audits the mask against its owner state and, when the
	// owner was missed, re-issues the request as a full broadcast on the
	// requester's behalf (counted as a retry). GETX and PUTX remain
	// broadcasts, so ownership changes stay globally visible and masks
	// stay mostly accurate. Requires at most 64 nodes.
	Multicast bool
	// PredictorSize bounds the per-node owner predictor: 0 is unbounded,
	// a positive value evicts the oldest entries (modelling finite
	// predictor hardware, which is what makes mispredictions — and hence
	// home-audit retries — occur), and a negative value disables
	// prediction entirely (masks are requester+home only).
	PredictorSize int
	// UseOwnedState upgrades the protocol from MSI to MOSI (Section 3:
	// "timestamp snooping protocols can also support any subset of the
	// MOESI states"). With the Owned state, an owner answering a GETS
	// keeps ownership instead of writing back to memory — eliminating one
	// data message per sharing miss — and a store to an Owned block
	// upgrades in place without any data transfer. Every decision the
	// Owned state introduces is derivable from the ordered stream, so the
	// cache and memory controllers stay consistent without new signals.
	UseOwnedState bool
	// Probe, when non-nil, records deterministic protocol telemetry:
	// MSHR occupancy, miss-wait latency, and per-kind dispatch counts.
	// Pass the same probe in Net.Probe to cover the address network.
	// Every call site is nil-guarded, so bare runs pay one branch.
	Probe *obs.Probe
}

// DefaultOptions mirrors the paper's evaluated configuration.
func DefaultOptions(params timing.Params) Options {
	net := tsnet.DefaultConfig()
	net.Params = params
	return Options{
		Net:      net,
		Cache:    cache.DefaultConfig(),
		Prefetch: true,
	}
}

// addrTxn is the payload carried on the address network. requester is the
// protocol-level requester: it differs from the tsnet source only for
// multicast retries, which the home re-issues on the requester's behalf.
//
// One addrTxn is shared by every endpoint delivery of one injection (the
// address network passes the payload pointer through); refs counts the
// remaining deliveries and returns the transaction to the protocol's
// free list when the last endpoint has consumed it, so a steady-state
// miss allocates no payloads.
type addrTxn struct {
	kind      coherence.TxnKind
	block     coherence.Block
	requester int
	// mask is the multicast destination set (all ones for broadcasts);
	// the home audits it against the owner state.
	mask uint64
	// reinjected marks a home-issued full-broadcast retry of a failed
	// multicast.
	reinjected bool
	refs       int32
}

// dataMsg travels on the unordered data virtual network. Messages are
// pooled: exactly one endpoint receives each, and dataArrive recycles it.
type dataMsg struct {
	block    coherence.Block
	toMemory bool
	version  uint64
	supplier stats.MissKind // classification for the requester
}

// obligation is a foreign request that ordered after this node's own GETX
// but before the miss completed: this node is the logical owner and must
// supply once its data arrives.
type obligation struct {
	kind    coherence.TxnKind
	src     int
	arrived sim.Time
}

// mshr tracks the node's single outstanding miss (blocking processors).
// Each node owns one mshr value that is reset and reused per miss (the
// obligations backing array survives the reset).
type mshr struct {
	block    coherence.Block
	op       coherence.Op
	kind     coherence.TxnKind
	issuedAt sim.Time
	done     func(coherence.AccessResult)

	ordered     bool
	dataArrived bool
	dataVersion uint64
	dataAt      sim.Time
	orderedAt   sim.Time
	supplier    stats.MissKind

	// loseCopy is set when a foreign GETX ordered after our GETS: the
	// incoming shared copy is logically invalidated before use.
	loseCopy bool
	// selfData is set when the node's own GETX ordered while it still
	// held the block in Owned (MOSI): the upgrade completes with the
	// local copy and no data message (supplier MissUpgrade).
	selfData bool
	// obligations are foreign requests this node owes data to (GETX only).
	obligations []obligation
}

// wbEntry is a writeback buffer entry: the evicted data is retained until
// the PUTX transaction is ordered (or until a foreign request ordered
// first takes the data, making the PUTX stale).
type wbEntry struct {
	version uint64
	stale   bool
}

// memState is the home memory controller's per-block state: the Synapse
// owner bit (owner == -1 means memory owns) plus the owner identity
// derived from the ordered stream, the memory copy's version, and
// bookkeeping for writeback data still in flight.
//
// dataOwed counts, over the whole ordered history, how many data messages
// memory has been promised (one per ownership-ending GETS and per valid
// PUTX); dataReceived counts arrivals. A memory response deferred behind
// in-flight writeback data waits only for the data owed at its own
// ordering point — waiting for later writebacks too would deadlock when
// the later writeback is owed by the very requester being answered.
type memState struct {
	owner        int
	version      uint64
	dataOwed     int64
	dataReceived int64
	waiting      []memWait
}

// memWait is a deferred memory response: the data needed to send the
// memory copy to dst once dataReceived reaches need (plain data rather
// than a closure; the version is read at delivery time, exactly as the
// deferred send would).
type memWait struct {
	need  int64 // deliver once dataReceived reaches this
	ready sim.Time
	dst   int
	block coherence.Block
}

type node struct {
	p     *Protocol
	id    int
	cache *cache.Cache
	mshr  *mshr
	wb    map[coherence.Block]wbEntry
	mem   map[coherence.Block]*memState
	// pred predicts the current owner per block for multicast masks,
	// learned from snooped (always-broadcast) GETX and PUTX traffic.
	// predFIFO implements the capacity bound's eviction order.
	pred     map[coherence.Block]int
	predFIFO []coherence.Block

	// mshrStore is the node's single reusable MSHR (see mshr).
	mshrStore mshr
}

// Protocol is the timestamp snooping protocol over one topology.
type Protocol struct {
	k      *sim.Kernel
	topo   *topology.Topology
	params timing.Params
	run    *stats.Run
	oracle *coherence.Oracle
	opts   Options

	addr  *tsnet.Network
	data  *network.Fabric
	nodes []*node

	pending   int
	dataBytes int
	probe     *obs.Probe // optional deterministic telemetry (Options.Probe)

	// Free lists for the two pooled payload kinds (see addrTxn, dataMsg).
	addrPool sim.Pool[addrTxn]
	dataPool sim.Pool[dataMsg]
}

var _ coherence.Protocol = (*Protocol)(nil)

// New constructs and starts the protocol over topo. oracle may be nil (a
// fresh one is created; violations panic).
func New(k *sim.Kernel, topo *topology.Topology, params timing.Params, run *stats.Run, oracle *coherence.Oracle, opts Options) *Protocol {
	if oracle == nil {
		oracle = coherence.NewOracle()
	}
	if opts.Multicast && topo.Nodes() > 64 {
		panic("tssnoop: multicast snooping limited to 64 nodes")
	}
	p := &Protocol{
		k:      k,
		topo:   topo,
		params: params,
		run:    run,
		oracle: oracle,
		opts:   opts,
		probe:  opts.Probe,
	}
	// Every L2 hit completes after the one hit latency: a kernel lane.
	k.DeclareDelay(params.L2Hit)
	p.dataBytes = timing.DataMsgBytes(opts.Cache.BlockBytes)
	p.addr = tsnet.New(k, topo, opts.Net, &run.Traffic, run)
	p.data = network.New(k, topo, params, &run.Traffic)
	p.data.SetProbe(opts.Probe)
	p.nodes = make([]*node, topo.Nodes())
	for i := range p.nodes {
		n := &node{
			p:     p,
			id:    i,
			cache: cache.MustNew(opts.Cache),
			wb:    make(map[coherence.Block]wbEntry),
			mem:   make(map[coherence.Block]*memState),
			pred:  make(map[coherence.Block]int),
		}
		p.nodes[i] = n
		var peek tsnet.PeekHandler
		if opts.EarlyProcessing {
			peek = n.peek
		}
		p.addr.Register(i, n.snoop, peek)
		p.data.Register(i, n.dataArrive)
	}
	p.addr.Start()
	return p
}

// Name implements coherence.Protocol.
func (p *Protocol) Name() string { return "TS-Snoop" }

// Pending implements coherence.Protocol.
func (p *Protocol) Pending() int { return p.pending }

// Oracle returns the coherence checker in use.
func (p *Protocol) Oracle() *coherence.Oracle { return p.oracle }

// SetPerturbation installs a response-delay sampler on the data network
// (the paper's stability methodology perturbs message responses).
func (p *Protocol) SetPerturbation(fn func() sim.Duration) { p.data.SetPerturbation(fn) }

// newAddr returns a zeroed address payload, recycled when possible.
func (p *Protocol) newAddr() *addrTxn { return p.addrPool.Get() }

// broadcastAddr broadcasts t on the address network, charging it with
// one reference per endpoint delivery.
func (p *Protocol) broadcastAddr(src int, t *addrTxn) {
	t.refs = int32(p.topo.Nodes())
	p.addr.Inject(src, t)
}

// multicastAddr multicasts t to its destination mask, charging one
// reference per member endpoint.
func (p *Protocol) multicastAddr(src int, t *addrTxn) {
	mask := t.mask
	if nodes := p.topo.Nodes(); nodes < 64 {
		mask &= 1<<uint(nodes) - 1
	}
	t.refs = int32(bits.OnesCount64(mask))
	p.addr.InjectTo(src, t.mask, t)
}

// releaseAddr drops one endpoint's reference; the last consumer returns
// the payload to the free list.
func (p *Protocol) releaseAddr(t *addrTxn) {
	t.refs--
	if t.refs == 0 {
		p.addrPool.Put(t)
	}
}

// newData returns a data message from the free list.
func (p *Protocol) newData(block coherence.Block, toMemory bool, version uint64, supplier stats.MissKind) *dataMsg {
	m := p.dataPool.Get()
	*m = dataMsg{block: block, toMemory: toMemory, version: version, supplier: supplier}
	return m
}

// releaseData recycles a delivered data message.
func (p *Protocol) releaseData(m *dataMsg) { p.dataPool.Put(m) }

// Node state inspection for tests: returns cache state of block at node.
func (p *Protocol) CacheState(nodeID int, b coherence.Block) cache.State {
	s, _ := p.nodes[nodeID].cache.Peek(b)
	return s
}

// MemOwner returns the Synapse owner for b at its home (-1 = memory).
func (p *Protocol) MemOwner(b coherence.Block) int {
	home := coherence.HomeOf(b, p.topo.Nodes())
	ms, ok := p.nodes[home].mem[b]
	if !ok {
		return -1
	}
	return ms.owner
}

// Access implements coherence.Protocol.
func (p *Protocol) Access(nodeID int, op coherence.Op, block coherence.Block, done func(coherence.AccessResult)) {
	n := p.nodes[nodeID]
	if n.mshr != nil {
		panic(fmt.Sprintf("tssnoop: node %d access while miss outstanding", nodeID))
	}
	state, version := n.cache.Lookup(block)
	now := p.k.Now()

	hit := false
	switch {
	case op == coherence.Load && state != cache.Invalid:
		hit = true
	case op == coherence.Store && state == cache.Modified:
		hit = true
	}
	if hit {
		if op == coherence.Store {
			version = p.oracle.WriteVersion(block)
			n.cache.SetVersion(block, version)
		}
		p.oracle.Observe(nodeID, block, version)
		p.k.AfterCall(p.params.L2Hit, deliverHit, p, done, int64(version))
		if pr := p.probe; pr != nil {
			pr.Event(obs.EvL2Hit)
		}
		return
	}

	// Miss: broadcast the appropriate transaction. A store to a Shared
	// copy issues GETX like any other store miss (no silent upgrade).
	kind := coherence.GetS
	if op == coherence.Store {
		kind = coherence.GetX
	}
	p.pending++
	if pr := p.probe; pr != nil {
		pr.MSHROcc(p.pending)
	}
	m := &n.mshrStore
	obligations := m.obligations[:0]
	*m = mshr{block: block, op: op, kind: kind, issuedAt: now, done: done}
	m.obligations = obligations
	n.mshr = m
	t := p.newAddr()
	t.kind = kind
	t.block = block
	t.requester = nodeID
	t.mask = ^uint64(0)
	if p.opts.Multicast && kind == coherence.GetS {
		t.mask = n.multicastMask(block)
		p.multicastAddr(nodeID, t)
		return
	}
	p.broadcastAddr(nodeID, t)
}

// multicastMask builds the predicted destination set for a GETS: the
// requester, the home, and the predicted owner when one is known.
func (n *node) multicastMask(block coherence.Block) uint64 {
	mask := uint64(1)<<uint(n.id) | uint64(1)<<uint(coherence.HomeOf(block, n.p.topo.Nodes()))
	if owner, ok := n.pred[block]; ok {
		mask |= 1 << uint(owner)
	}
	return mask
}

// sendData transmits a data message on the data virtual network at the
// given ready time (never before now).
func (p *Protocol) sendData(at sim.Time, src, dst int, m *dataMsg) {
	if at < p.k.Now() {
		at = p.k.Now()
	}
	p.k.AtCall(at, sendDataEvent, p, m, int64(src)<<32|int64(dst))
}

// deliverHit is the typed kernel event completing an L2 hit: a0 is the
// Protocol, a1 the access's done callback, i0 the version observed.
func deliverHit(a0, a1 any, i0 int64) {
	p := a0.(*Protocol)
	a1.(func(coherence.AccessResult))(coherence.AccessResult{Hit: true, Latency: p.params.L2Hit, Version: uint64(i0)})
}

// sendDataEvent is the typed kernel event putting a ready data message on
// the wire: a0 is the Protocol, a1 the message, i0 packs (src, dst).
func sendDataEvent(a0, a1 any, i0 int64) {
	p := a0.(*Protocol)
	m := a1.(*dataMsg)
	if pr := p.probe; pr != nil {
		pr.Event(obs.EvDataSend)
	}
	src, dst := int(i0>>32), int(i0&0xffffffff)
	p.data.Send(0, src, dst, stats.ClassData, p.dataBytes, m)
}

// respondReady computes when a controller can put data on the wire for a
// transaction that physically arrived at arrivedAt and was ordered at the
// current time, given the access latency. With prefetching (optimization
// 1) the DRAM/SRAM access starts as soon as the early transaction clears
// the network-exit overhead and overlaps the wait for ordering; the
// response is gated on the logical order either way.
func (p *Protocol) respondReady(arrivedAt sim.Time, access sim.Duration) sim.Time {
	now := p.k.Now()
	if p.opts.Prefetch {
		ready := arrivedAt + p.params.Dovh + access
		if ready < now {
			ready = now
		}
		return ready
	}
	return now + access
}

// peek implements optimization 2. Consuming early is safe only when (a)
// the transaction cannot interact with this node's current or future
// protocol state except through stable S/I snoops, and (b) no transaction
// this node could inject from now on can order before it — guaranteed when
// the arrival slack is strictly below the OT distance of a fresh
// injection.
func (n *node) peek(src int, seq uint64, payload any, slackTicks int) bool {
	t := payload.(*addrTxn)
	if consumed := n.peekConsume(src, t, slackTicks); consumed {
		// A consumed transaction's ordered handler never fires: this is
		// the endpoint's one use of the payload.
		n.p.releaseAddr(t)
		return true
	}
	return false
}

func (n *node) peekConsume(src int, t *addrTxn, slackTicks int) bool {
	if src == n.id {
		return false
	}
	if coherence.HomeOf(t.block, n.p.topo.Nodes()) == n.id {
		return false // the home memory controller needs the total order
	}
	minInjectOT := n.p.opts.Net.TokensPerPort*n.p.topo.Dmax(n.id) + n.p.opts.Net.InitialSlack
	if slackTicks >= minInjectOT {
		return false
	}
	if n.mshr != nil && n.mshr.block == t.block {
		return false
	}
	if _, ok := n.wb[t.block]; ok {
		return false
	}
	state, _ := n.cache.Peek(t.block)
	switch t.kind {
	case coherence.PutX:
		return true
	case coherence.GetS:
		return state == cache.Invalid || state == cache.Shared
	case coherence.GetX:
		if state == cache.Shared {
			n.cache.SetState(t.block, cache.Invalid) // early invalidation
			return true
		}
		return state == cache.Invalid
	}
	return false
}

// snoop processes one transaction from the global logical order: first the
// cache-controller side, then (when this node is the block's home) the
// memory-controller side.
func (n *node) snoop(src int, seq uint64, payload any, arrived sim.Time) {
	t := payload.(*addrTxn)
	if t.requester == n.id {
		n.snoopOwn(t, arrived)
	} else {
		n.snoopForeign(t.requester, t, arrived)
	}
	if coherence.HomeOf(t.block, n.p.topo.Nodes()) == n.id {
		n.memorySide(t.requester, t, arrived)
	}
	n.p.releaseAddr(t)
}

func (n *node) snoopOwn(t *addrTxn, arrived sim.Time) {
	switch t.kind {
	case coherence.GetS, coherence.GetX:
		m := n.mshr
		if t.reinjected {
			// A home-issued retry of our failed multicast: the original
			// multicast already marked the miss ordered; the retry only
			// exists so the (missed) owner finally sees the request.
			return
		}
		if m == nil || m.block != t.block || m.kind != t.kind {
			panic(fmt.Sprintf("tssnoop: node %d own %v ordered without matching MSHR", n.id, t.kind))
		}
		m.ordered = true
		m.orderedAt = n.p.k.Now()
		if t.kind == coherence.GetX && !m.dataArrived {
			// MOSI: a store upgrade whose Owned copy survived to the
			// ordering point needs no data — the sharers invalidated on
			// this same transaction and the local copy is current.
			if state, version := n.cache.Peek(t.block); state == cache.Owned {
				m.dataArrived = true
				m.dataVersion = version
				m.selfData = true
				m.supplier = stats.MissUpgrade
			}
		}
		if m.dataArrived {
			n.complete(m)
		}
	case coherence.PutX:
		wb, ok := n.wb[t.block]
		if !ok {
			panic(fmt.Sprintf("tssnoop: node %d own PUTX ordered without writeback entry", n.id))
		}
		delete(n.wb, t.block)
		if !wb.stale {
			home := coherence.HomeOf(t.block, n.p.topo.Nodes())
			n.p.sendData(n.p.k.Now(), n.id, home, n.p.newData(t.block, true, wb.version, 0))
		}
	}
}

func (n *node) snoopForeign(src int, t *addrTxn, arrived sim.Time) {
	if n.p.opts.Multicast && n.p.opts.PredictorSize >= 0 {
		// Owner prediction from the always-broadcast transactions.
		switch t.kind {
		case coherence.GetX:
			if _, known := n.pred[t.block]; !known {
				n.predFIFO = append(n.predFIFO, t.block)
				if max := n.p.opts.PredictorSize; max > 0 && len(n.predFIFO) > max {
					old := n.predFIFO[0]
					n.predFIFO = n.predFIFO[1:]
					delete(n.pred, old)
				}
			}
			n.pred[t.block] = src
		case coherence.PutX:
			delete(n.pred, t.block)
		}
	}
	if t.kind == coherence.PutX {
		return // foreign writebacks have no cache-side effect
	}
	// A foreign request ordered after our own ordered-but-incomplete GETX
	// finds us as the logical owner: defer the supply to completion.
	if m := n.mshr; m != nil && m.block == t.block && m.ordered {
		if m.kind == coherence.GetX {
			m.obligations = append(m.obligations, obligation{kind: t.kind, src: src, arrived: arrived})
			return
		}
		// Our GETS ordered first; a foreign GETX ordered behind it takes
		// the incoming copy away before we can cache it.
		if t.kind == coherence.GetX {
			m.loseCopy = true
		}
		return
	}
	state, version := n.cache.Peek(t.block)
	home := coherence.HomeOf(t.block, n.p.topo.Nodes())
	ready := n.p.respondReady(arrived, n.p.params.Dcache)
	switch t.kind {
	case coherence.GetS:
		switch {
		case state == cache.Modified:
			n.p.sendData(ready, n.id, src, n.p.newData(t.block, false, version, stats.MissCacheToCache))
			if n.p.opts.UseOwnedState {
				// MOSI: retain ownership in Owned; no memory writeback.
				n.cache.SetState(t.block, cache.Owned)
			} else {
				// MSI: the owner supplies the requester and writes back
				// to memory, which becomes the owner again (two data
				// messages).
				n.p.sendData(ready, n.id, home, n.p.newData(t.block, true, version, 0))
				n.cache.SetState(t.block, cache.Shared)
			}
		case state == cache.Owned:
			// MOSI: the Owned copy supplies every subsequent reader.
			n.p.sendData(ready, n.id, src, n.p.newData(t.block, false, version, stats.MissCacheToCache))
		default:
			if wb, ok := n.wb[t.block]; ok && !wb.stale {
				// The block is in our writeback buffer: we are still the
				// owner in logical order; supply from the buffer.
				n.p.sendData(ready, n.id, src, n.p.newData(t.block, false, wb.version, stats.MissCacheToCache))
				if !n.p.opts.UseOwnedState {
					// MSI: ownership returns to memory now; squash the
					// PUTX. MOSI keeps ownership with the buffer until
					// the PUTX itself is ordered, mirroring the memory
					// controller's view.
					n.p.sendData(ready, n.id, home, n.p.newData(t.block, true, wb.version, 0))
					wb.stale = true
					n.wb[t.block] = wb
				}
			}
		}
	case coherence.GetX:
		switch {
		case state == cache.Modified || state == cache.Owned:
			n.p.sendData(ready, n.id, src, n.p.newData(t.block, false, version, stats.MissCacheToCache))
			n.cache.SetState(t.block, cache.Invalid)
		case state == cache.Shared:
			n.cache.SetState(t.block, cache.Invalid)
		default:
			if wb, ok := n.wb[t.block]; ok && !wb.stale {
				n.p.sendData(ready, n.id, src, n.p.newData(t.block, false, wb.version, stats.MissCacheToCache))
				wb.stale = true
				n.wb[t.block] = wb
			}
		}
	}
}

// memorySide maintains the Synapse owner state and responds from memory
// when memory owns the block.
func (n *node) memorySide(src int, t *addrTxn, arrived sim.Time) {
	ms, ok := n.mem[t.block]
	if !ok {
		ms = &memState{owner: -1}
		n.mem[t.block] = ms
	}
	switch t.kind {
	case coherence.GetS:
		if ms.owner != -1 && t.mask&(1<<uint(ms.owner)) == 0 {
			// Multicast audit failure: the owner was not in the predicted
			// destination set, so nobody can supply. Re-issue the request
			// as a full broadcast on the requester's behalf; this ordered
			// instance has no effect anywhere (the owner never saw it and
			// every member's cache action for a GETS at S/I is a no-op).
			n.p.run.Retries++
			retry := n.p.newAddr()
			retry.kind = coherence.GetS
			retry.block = t.block
			retry.requester = src
			retry.mask = ^uint64(0)
			retry.reinjected = true
			n.p.broadcastAddr(n.id, retry)
			return
		}
		if ms.owner == -1 {
			n.memRespond(ms, src, t.block, arrived)
		} else {
			if ms.owner == src {
				panic("tssnoop: owner issued GETS for its own block")
			}
			if !n.p.opts.UseOwnedState {
				// MSI: the owner supplies and writes back: memory owns
				// again and owes one incoming data message. MOSI: the
				// owner keeps ownership in Owned; memory does nothing.
				ms.owner = -1
				ms.dataOwed++
			}
		}
	case coherence.GetX:
		if ms.owner == -1 {
			n.memRespond(ms, src, t.block, arrived)
		} else if ms.owner == src && !n.p.opts.UseOwnedState {
			// MOSI allows this: an Owned holder upgrading in place.
			panic("tssnoop: owner issued GETX for its own block")
		}
		ms.owner = src
	case coherence.PutX:
		if ms.owner == src {
			ms.owner = -1
			ms.dataOwed++
		}
		// Otherwise the writeback is stale: a request ordered between its
		// injection and now already moved ownership; the cache side made
		// the same decision from the same ordered prefix.
	}
}

// memRespond sends the memory copy to a requester, deferring while
// writeback data that logically precedes this transaction is in flight.
// A deferred response reads the memory version at delivery time, exactly
// as an immediate one reads it now.
func (n *node) memRespond(ms *memState, src int, b coherence.Block, arrived sim.Time) {
	ready := n.p.respondReady(arrived, n.p.params.Dmem)
	if ms.dataReceived < ms.dataOwed {
		ms.waiting = append(ms.waiting, memWait{need: ms.dataOwed, ready: ready, dst: src, block: b})
		return
	}
	n.p.sendData(ready, n.id, src, n.p.newData(b, false, ms.version, stats.MissFromMemory))
}

// dataArrive handles data network deliveries: either a writeback into
// memory or the fill for this node's outstanding miss.
func (n *node) dataArrive(msg network.Message) {
	pd := msg.Payload.(*dataMsg)
	d := *pd
	n.p.releaseData(pd)
	if d.toMemory {
		// The entry may not exist yet when the sender's endpoint runs
		// physically ahead of ours; create it as memory-owned, exactly as
		// the ordered processing will.
		ms, ok := n.mem[d.block]
		if !ok {
			ms = &memState{owner: -1}
			n.mem[d.block] = ms
		}
		// Writeback data can arrive out of order on the unordered data
		// network; versions are monotonic, so the newest write wins.
		if d.version > ms.version {
			ms.version = d.version
		}
		// dataReceived may transiently LEAD dataOwed: endpoints process
		// the logical order at skewed physical times (especially under
		// contention), so an owner's writeback can land before the home
		// endpoint has processed the transaction that owes it. The
		// ledger still balances — dataOwed catches up when the home's
		// ordered processing reaches that transaction — and a deferral
		// registered then finds its need already satisfied.
		ms.dataReceived++
		for len(ms.waiting) > 0 && ms.waiting[0].need <= ms.dataReceived {
			w := ms.waiting[0]
			ms.waiting = ms.waiting[1:]
			n.p.sendData(w.ready, n.id, w.dst, n.p.newData(w.block, false, ms.version, stats.MissFromMemory))
		}
		return
	}
	m := n.mshr
	if m == nil || m.block != d.block {
		panic(fmt.Sprintf("tssnoop: node %d fill for unexpected block %x", n.id, d.block))
	}
	m.dataArrived = true
	m.dataVersion = d.version
	m.dataAt = n.p.k.Now()
	m.supplier = d.supplier
	if m.ordered {
		n.complete(m)
	}
}

// complete finishes a miss: insert the line, perform the store, apply any
// ownership obligations accumulated while the fill was in flight, and
// release the processor.
func (n *node) complete(m *mshr) {
	now := n.p.k.Now()
	n.mshr = nil
	n.p.pending--
	if pr := n.p.probe; pr != nil {
		pr.MSHROcc(n.p.pending)
	}

	version := m.dataVersion
	if m.kind == coherence.GetS {
		if !m.loseCopy {
			n.insertLine(m.block, cache.Shared, version)
		}
	} else {
		if m.op == coherence.Store {
			version = n.p.oracle.WriteVersion(m.block)
		}
		n.insertLine(m.block, cache.Modified, version)
		// Apply deferred foreign requests in their ordered sequence.
		home := coherence.HomeOf(m.block, n.p.topo.Nodes())
		mosi := n.p.opts.UseOwnedState
		state := cache.Modified
		for _, ob := range m.obligations {
			ready := now + n.p.params.Dcache
			switch ob.kind {
			case coherence.GetS:
				if state == cache.Modified || state == cache.Owned {
					n.p.sendData(ready, n.id, ob.src, n.p.newData(m.block, false, version, stats.MissCacheToCache))
					if mosi {
						state = cache.Owned
					} else {
						n.p.sendData(ready, n.id, home, n.p.newData(m.block, true, version, 0))
						state = cache.Shared
					}
				}
			case coherence.GetX:
				if state == cache.Modified || state == cache.Owned {
					n.p.sendData(ready, n.id, ob.src, n.p.newData(m.block, false, version, stats.MissCacheToCache))
				}
				state = cache.Invalid
			}
		}
		if state != cache.Modified {
			n.cache.SetState(m.block, state)
		}
	}

	// Read everything out of the MSHR before invoking the completion
	// callback: the node's single MSHR is reused, and done may issue the
	// next access synchronously.
	block, supplier, latency, done := m.block, m.supplier, now-m.issuedAt, m.done
	if pr := n.p.probe; pr != nil {
		pr.MissWait(int64(latency))
		// Lifecycle spans, all on the node's MSHR lane (tid 1; the
		// blocking protocol has one MSHR slot per node): the whole miss,
		// the slice spent waiting for the ordering point, and the data
		// phase relative to it. A MOSI self-upgrade (selfData) moves no
		// data, so it records no data phase.
		id, lane := int32(n.id), obs.LaneMSHR0
		pr.Span(obs.SpanMiss, id, lane, id, 0, int64(m.issuedAt), int64(latency))
		pr.Span(obs.SpanOrderWait, id, lane, id, 0, int64(m.issuedAt), int64(m.orderedAt-m.issuedAt))
		if !m.selfData {
			if m.dataAt >= m.orderedAt {
				pr.Span(obs.SpanDataAfterOrder, id, lane, id, 0, int64(m.orderedAt), int64(m.dataAt-m.orderedAt))
			} else {
				pr.Span(obs.SpanDataBeforeOrder, id, lane, id, 0, int64(m.dataAt), int64(m.orderedAt-m.dataAt))
			}
		}
	}
	n.p.oracle.Observe(n.id, block, version)
	done(coherence.AccessResult{
		Kind:    supplier,
		Latency: latency,
		Version: version,
	})
	n.p.run.AddMiss(supplier, latency)
}

// insertLine fills a block, handling victim eviction: a Modified victim
// enters the writeback buffer and broadcasts PUTX; a Shared victim is
// dropped silently (the protocols "allow processors to silently downgrade
// from S to I").
func (n *node) insertLine(b coherence.Block, s cache.State, version uint64) {
	victim, evicted := n.cache.Insert(b, s, version)
	if !evicted {
		return
	}
	if victim.State.Dirty() {
		if _, dup := n.wb[victim.Block]; dup {
			panic(fmt.Sprintf("tssnoop: node %d duplicate writeback for %x", n.id, victim.Block))
		}
		n.wb[victim.Block] = wbEntry{version: victim.Version}
		put := n.p.newAddr()
		put.kind = coherence.PutX
		put.block = victim.Block
		// The requester must name the evicting node: snoop dispatches
		// own-vs-foreign on it, so leaving it zero would misroute every
		// writeback from a node other than 0 (node 0 would claim it and
		// panic on its missing writeback entry).
		put.requester = n.id
		n.p.broadcastAddr(n.id, put)
	}
}
