// Package directory implements the paper's two directory-protocol
// baselines over unordered point-to-point networks:
//
//   - DirClassic is modelled after the SGI Origin 2000 protocol: a full
//     bit-vector directory at each home, busy states, and negative
//     acknowledgements (NACKs) when a request hits a busy entry, with the
//     requester retrying after a backoff. Invalidation acknowledgements
//     are collected by the requester.
//
//   - DirOpt follows the recent nack-free designs the paper cites
//     (AlphaServer GS320): requests that find the entry busy are queued at
//     the home in arrival order, forwarded requests travel on a
//     point-to-point ordered virtual network, and invalidations need no
//     acknowledgements. As in the GS320, a store therefore completes
//     while its invalidations may still be in flight; a remote sharer can
//     briefly hit its old copy, which is coherent (the load orders before
//     the store) but weaker than DirClassic's ack-synchronized stores.
//
// Both are MSI protocols on three virtual networks (request, forward,
// response) and share the cache, writeback-buffer and retry scaffolding.
// A cache-to-cache transfer is a three-hop transaction: requester -> home
// (directory lookup) -> owner -> requester, which is why its unloaded
// latency (252 ns on the butterfly) is roughly double timestamp
// snooping's.
package directory

import (
	"fmt"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/network"
	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// Variant selects the protocol flavour.
type Variant int

// Variants.
const (
	Classic Variant = iota
	Opt
)

func (v Variant) String() string {
	if v == Classic {
		return "DirClassic"
	}
	return "DirOpt"
}

// Virtual network numbers.
const (
	vnetRequest  = 0
	vnetForward  = 1
	vnetResponse = 2
)

// Options configures a directory protocol instance.
type Options struct {
	Variant Variant
	Cache   cache.Config
	// RetryBackoff is the base delay before re-sending a nacked request
	// (DirClassic); each retry adds uniform jitter of the same magnitude.
	RetryBackoff sim.Duration
	// RetrySeed seeds the per-node backoff jitter.
	RetrySeed uint64
	// Probe, when non-nil, records deterministic protocol telemetry:
	// MSHR occupancy, miss-wait latency, and per-kind dispatch counts.
	// Every call site is nil-guarded, so bare runs pay one branch.
	Probe *obs.Probe
}

// DefaultOptions returns the configuration used in the paper's runs.
func DefaultOptions(v Variant) Options {
	return Options{
		Variant:      v,
		Cache:        cache.DefaultConfig(),
		RetryBackoff: 60 * sim.Nanosecond,
		RetrySeed:    1,
	}
}

// message kinds on the three virtual networks.
type msgKind int

const (
	mReq      msgKind = iota // requester -> home: GETS/GETX
	mNack                    // home -> requester (Classic)
	mData                    // data response to requester
	mFwd                     // home -> owner intervention
	mInval                   // home -> sharer invalidation
	mInvAck                  // sharer -> requester (Classic)
	mRevision                // owner -> home after intervention
	mWB                      // owner -> home writeback (carries data)
	mWBAck                   // home -> owner
)

type msg struct {
	kind      msgKind
	txn       coherence.TxnKind
	block     coherence.Block
	requester int
	version   uint64
	// ackCount rides on mData (Classic GETX): invalidation acks the
	// requester must collect before completing.
	ackCount int
	supplier stats.MissKind
	// keepCopy on a GETS revision: whether the old owner retained a
	// shared copy (false when it supplied from its writeback buffer).
	keepCopy bool
}

// dirState is the home directory entry state.
type dirState int

const (
	dirU dirState = iota // memory owns, no sharers
	dirS                 // shared by the bit vector
	dirE                 // exclusive at owner
)

// dirEntry is one block's full-bit-vector directory entry.
type dirEntry struct {
	state   dirState
	sharers uint64
	owner   int
	version uint64

	// busy marks an outstanding intervention episode (E-state requests).
	busy    bool
	busyTxn coherence.TxnKind
	busyReq int
	busyAt  sim.Time
	// heldWB holds writebacks that arrived during a busy episode: usually
	// the old owner's (its intervention is served from the writeback
	// buffer), but under perturbation also the incoming owner's, when its
	// eviction outruns the revision.
	heldWB []msg
	// queue holds requests that arrived while busy (DirOpt only).
	queue []msg
}

type mshr struct {
	block    coherence.Block
	op       coherence.Op
	txn      coherence.TxnKind
	issuedAt sim.Time
	done     func(coherence.AccessResult)

	dataArrived bool
	version     uint64
	supplier    stats.MissKind
	acksNeeded  int
	acksSeen    int
	haveAckInfo bool
	// invalVersion is the highest version an invalidation that arrived
	// while this (GETS) miss was outstanding was killing: if the fill's
	// version is not newer, the copy was invalidated before it could be
	// installed and must not be cached (the load itself is still legal —
	// it is ordered before the invalidating store).
	invalVersion uint64
	sawInval     bool
}

type wbEntry struct {
	version uint64
}

type node struct {
	p     *Protocol
	id    int
	cache *cache.Cache
	mshr  *mshr
	wb    map[coherence.Block]*wbEntry
	dir   map[coherence.Block]*dirEntry
	// deferred holds interventions that arrived before this node's own
	// GETX completed (the home granted ownership while the fill was still
	// in flight).
	deferred map[coherence.Block][]msg
	rng      *sim.Rand

	// mshrStore is the node's single reusable MSHR: one miss is
	// outstanding per node (blocking processors), so the value is reset
	// and reused rather than allocated per miss.
	mshrStore mshr
}

// Protocol is one directory protocol instance over a topology.
type Protocol struct {
	k      *sim.Kernel
	topo   *topology.Topology
	params timing.Params
	run    *stats.Run
	oracle *coherence.Oracle
	opts   Options

	fabric *network.Fabric
	nodes  []*node

	pending   int
	dataBytes int
	probe     *obs.Probe // optional deterministic telemetry (Options.Probe)

	// msgPool recycles message payloads: each is delivered to exactly
	// one endpoint, which returns it to the pool on receipt, so a steady
	// stream of protocol messages allocates nothing.
	msgPool sim.Pool[msg]
}

var _ coherence.Protocol = (*Protocol)(nil)

// New constructs a directory protocol. oracle may be nil.
func New(k *sim.Kernel, topo *topology.Topology, params timing.Params, run *stats.Run, oracle *coherence.Oracle, opts Options) *Protocol {
	if topo.Nodes() > 64 {
		panic("directory: full bit vector limited to 64 nodes")
	}
	if oracle == nil {
		oracle = coherence.NewOracle()
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
	var ordered []int
	if opts.Variant == Opt {
		// DirOpt "uses point-to-point ordering on one virtual network to
		// avoid nacks".
		ordered = []int{vnetForward}
	}
	p.fabric = network.New(k, topo, params, &run.Traffic, ordered...)
	p.fabric.SetProbe(opts.Probe)
	p.nodes = make([]*node, topo.Nodes())
	rng := sim.NewRand(opts.RetrySeed)
	for i := range p.nodes {
		n := &node{
			p:        p,
			id:       i,
			cache:    cache.MustNew(opts.Cache),
			wb:       make(map[coherence.Block]*wbEntry),
			dir:      make(map[coherence.Block]*dirEntry),
			deferred: make(map[coherence.Block][]msg),
			rng:      rng.Split(),
		}
		p.nodes[i] = n
		p.fabric.Register(i, n.receive)
	}
	return p
}

// Name implements coherence.Protocol.
func (p *Protocol) Name() string { return p.opts.Variant.String() }

// Pending implements coherence.Protocol.
func (p *Protocol) Pending() int { return p.pending }

// Oracle returns the coherence checker in use.
func (p *Protocol) Oracle() *coherence.Oracle { return p.oracle }

// SetPerturbation installs a response-delay sampler on the fabric.
func (p *Protocol) SetPerturbation(fn func() sim.Duration) { p.fabric.SetPerturbation(fn) }

// CacheState reports the cache state of block b at a node (tests).
func (p *Protocol) CacheState(nodeID int, b coherence.Block) cache.State {
	s, _ := p.nodes[nodeID].cache.Peek(b)
	return s
}

// DirectoryState reports the home directory state for b (tests): the
// state, owner (or -1) and sharer count.
func (p *Protocol) DirectoryState(b coherence.Block) (string, int, int) {
	home := coherence.HomeOf(b, p.topo.Nodes())
	e, ok := p.nodes[home].dir[b]
	if !ok || e.state == dirU {
		return "U", -1, 0
	}
	if e.state == dirE {
		return "E", e.owner, 0
	}
	cnt := 0
	for v := e.sharers; v != 0; v &= v - 1 {
		cnt++
	}
	return "S", -1, cnt
}

// Access implements coherence.Protocol.
func (p *Protocol) Access(nodeID int, op coherence.Op, block coherence.Block, done func(coherence.AccessResult)) {
	n := p.nodes[nodeID]
	if n.mshr != nil {
		panic(fmt.Sprintf("%s: node %d access while miss outstanding", p.Name(), nodeID))
	}
	state, version := n.cache.Lookup(block)

	hit := (op == coherence.Load && state != cache.Invalid) ||
		(op == coherence.Store && state == cache.Modified)
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

	txn := coherence.GetS
	if op == coherence.Store {
		txn = coherence.GetX
	}
	p.pending++
	if pr := p.probe; pr != nil {
		pr.MSHROcc(p.pending)
	}
	m := &n.mshrStore
	*m = mshr{block: block, op: op, txn: txn, issuedAt: p.k.Now(), done: done}
	n.mshr = m
	n.sendRequest()
}

// newMsg returns a pooled message payload holding m.
func (p *Protocol) newMsg(m msg) *msg {
	pm := p.msgPool.Get()
	*pm = m
	return pm
}

// releaseMsg recycles a delivered message payload.
func (p *Protocol) releaseMsg(pm *msg) { p.msgPool.Put(pm) }

// send transmits a protocol message, charging the right traffic class.
func (p *Protocol) send(vnet, src, dst int, m msg) {
	p.sendPtr(vnet, src, dst, p.newMsg(m))
}

func (p *Protocol) sendPtr(vnet, src, dst int, pm *msg) {
	class, bytes := p.classify(*pm)
	p.fabric.Send(vnet, src, dst, class, bytes, pm)
}

// sendAt schedules a send at a future ready time.
func (p *Protocol) sendAt(at sim.Time, vnet, src, dst int, m msg) {
	if at <= p.k.Now() {
		p.send(vnet, src, dst, m)
		return
	}
	p.k.AtCall(at, sendMsgEvent, p, p.newMsg(m), int64(vnet)<<40|int64(src)<<20|int64(dst))
}

// deliverHit is the typed kernel event completing an L2 hit: a0 is the
// Protocol, a1 the access's done callback, i0 the version observed.
func deliverHit(a0, a1 any, i0 int64) {
	p := a0.(*Protocol)
	a1.(func(coherence.AccessResult))(coherence.AccessResult{Hit: true, Latency: p.params.L2Hit, Version: uint64(i0)})
}

// sendMsgEvent is the typed kernel event putting a ready message on the
// wire: a0 is the Protocol, a1 the pooled message, i0 packs
// (vnet, src, dst) in 20-bit fields.
func sendMsgEvent(a0, a1 any, i0 int64) {
	p := a0.(*Protocol)
	p.sendPtr(int(i0>>40), int(i0>>20)&0xfffff, int(i0&0xfffff), a1.(*msg))
}

// classify maps messages to Figure 4's traffic classes: Data for
// block-carrying messages, Nack for nacks, Request for GETS/GETX, and
// Misc. for "forwarding, invalidations, and acknowledgments".
func (p *Protocol) classify(m msg) (stats.Class, int) {
	switch m.kind {
	case mReq:
		return stats.ClassRequest, timing.CtrlBytes
	case mNack:
		return stats.ClassNack, timing.CtrlBytes
	case mData, mWB:
		return stats.ClassData, p.dataBytes
	case mRevision:
		if m.txn == coherence.GetS {
			// The sharing writeback carries the block to memory.
			return stats.ClassData, p.dataBytes
		}
		return stats.ClassMisc, timing.CtrlBytes
	default:
		return stats.ClassMisc, timing.CtrlBytes
	}
}

func (n *node) sendRequest() {
	m := n.mshr
	home := coherence.HomeOf(m.block, n.p.topo.Nodes())
	n.p.send(vnetRequest, n.id, home, msg{kind: mReq, txn: m.txn, block: m.block, requester: n.id})
}

// receive dispatches a delivered message.
func (n *node) receive(nm network.Message) {
	pm := nm.Payload.(*msg)
	m := *pm
	n.p.releaseMsg(pm)
	switch m.kind {
	case mReq:
		n.homeRequest(m)
	case mNack:
		n.reqNack(m)
	case mData:
		n.reqData(m)
	case mFwd:
		n.ownerFwd(m)
	case mInval:
		n.sharerInval(m)
	case mInvAck:
		n.reqInvAck(m)
	case mRevision:
		n.homeRevision(m)
	case mWB:
		n.homeWB(m)
	case mWBAck:
		n.ownerWBAck(m)
	default:
		panic("directory: unknown message kind")
	}
}

func (n *node) entry(b coherence.Block) *dirEntry {
	e, ok := n.dir[b]
	if !ok {
		e = &dirEntry{state: dirU, owner: -1}
		n.dir[b] = e
	}
	return e
}

// homeRequest processes a GETS/GETX at the home directory.
func (n *node) homeRequest(m msg) {
	e := n.entry(m.block)
	if e.busy {
		if n.p.opts.Variant == Classic {
			n.p.send(vnetResponse, n.id, m.requester, msg{kind: mNack, block: m.block, txn: m.txn})
			return
		}
		e.queue = append(e.queue, m)
		return
	}
	n.serveRequest(e, m)
}

// serveRequest handles a request against a non-busy entry. The directory
// access costs Dmem before any response or forward leaves the home.
func (n *node) serveRequest(e *dirEntry, m msg) {
	ready := n.p.k.Now() + n.p.params.Dmem
	switch m.txn {
	case coherence.GetS:
		switch e.state {
		case dirU, dirS:
			e.state = dirS
			e.sharers |= 1 << uint(m.requester)
			n.p.sendAt(ready, vnetResponse, n.id, m.requester, msg{
				kind: mData, txn: m.txn, block: m.block,
				version: e.version, supplier: stats.MissFromMemory,
			})
		case dirE:
			e.busy = true
			e.busyTxn = coherence.GetS
			e.busyReq = m.requester
			e.busyAt = n.p.k.Now()
			n.p.sendAt(ready, vnetForward, n.id, e.owner, msg{
				kind: mFwd, txn: coherence.GetS, block: m.block, requester: m.requester,
			})
		}
	case coherence.GetX:
		switch e.state {
		case dirU:
			e.state = dirE
			e.owner = m.requester
			n.p.sendAt(ready, vnetResponse, n.id, m.requester, msg{
				kind: mData, txn: m.txn, block: m.block,
				version: e.version, supplier: stats.MissFromMemory,
			})
		case dirS:
			acks := 0
			for s := e.sharers; s != 0; s &= s - 1 {
				sh := bitIndex(s)
				if sh == m.requester {
					continue
				}
				acks++
				// The invalidation carries the version it is killing so a
				// racing fill can tell whether it is the victim (version
				// <= e.version) or a newer grant that must survive.
				n.p.sendAt(ready, vnetForward, n.id, sh, msg{
					kind: mInval, block: m.block, requester: m.requester, version: e.version,
				})
			}
			if n.p.opts.Variant == Opt {
				// GS320-style: ordered invalidation delivery removes the
				// need for acknowledgements.
				acks = 0
			}
			e.state = dirE
			e.owner = m.requester
			e.sharers = 0
			n.p.sendAt(ready, vnetResponse, n.id, m.requester, msg{
				kind: mData, txn: m.txn, block: m.block,
				version: e.version, ackCount: acks, supplier: stats.MissFromMemory,
			})
		case dirE:
			e.busy = true
			e.busyTxn = coherence.GetX
			e.busyReq = m.requester
			e.busyAt = n.p.k.Now()
			n.p.sendAt(ready, vnetForward, n.id, e.owner, msg{
				kind: mFwd, txn: coherence.GetX, block: m.block, requester: m.requester,
			})
		}
	default:
		panic("directory: bad request kind")
	}
}

func bitIndex(v uint64) int {
	idx := 0
	for v&1 == 0 {
		v >>= 1
		idx++
	}
	return idx
}

// reqNack handles a NACK: retry after backoff with jitter.
func (n *node) reqNack(m msg) {
	if n.mshr == nil || n.mshr.block != m.block {
		return // stale nack for an already-satisfied retry
	}
	n.p.run.Retries++
	back := n.p.opts.RetryBackoff + n.rng.Duration(n.p.opts.RetryBackoff)
	n.p.k.AfterCall(back, retryRequest, n, nil, int64(m.block))
}

// retryRequest is the typed kernel event ending a NACK backoff: a0 is
// the node, i0 the block whose miss is being retried (skipped when the
// miss was satisfied or replaced in the meantime).
func retryRequest(a0, a1 any, i0 int64) {
	n := a0.(*node)
	if pr := n.p.probe; pr != nil {
		pr.Event(obs.EvRetry)
	}
	if n.mshr != nil && n.mshr.block == coherence.Block(i0) {
		n.sendRequest()
	}
}

// reqData handles the data response for this node's outstanding miss.
func (n *node) reqData(m msg) {
	ms := n.mshr
	if ms == nil || ms.block != m.block {
		panic(fmt.Sprintf("%s: node %d data for unexpected block %x", n.p.Name(), n.id, m.block))
	}
	ms.dataArrived = true
	ms.version = m.version
	ms.supplier = m.supplier
	ms.acksNeeded = m.ackCount
	ms.haveAckInfo = true
	n.maybeComplete()
}

func (n *node) reqInvAck(m msg) {
	ms := n.mshr
	if ms == nil || ms.block != m.block {
		// The ack can outrun the protocol: count it only if it matches an
		// outstanding miss; otherwise it is stale (should not occur).
		panic(fmt.Sprintf("%s: node %d stray invalidation ack", n.p.Name(), n.id))
	}
	ms.acksSeen++
	n.maybeComplete()
}

func (n *node) maybeComplete() {
	ms := n.mshr
	if ms == nil || !ms.dataArrived || !ms.haveAckInfo || ms.acksSeen < ms.acksNeeded {
		return
	}
	n.complete()
}

func (n *node) complete() {
	ms := n.mshr
	n.mshr = nil
	n.p.pending--
	if pr := n.p.probe; pr != nil {
		pr.MSHROcc(n.p.pending)
	}
	now := n.p.k.Now()

	version := ms.version
	if ms.txn == coherence.GetS {
		// Skip the install when an invalidation that raced this fill was
		// killing this very grant (fill version not newer than the
		// version the invalidation targeted).
		if !ms.sawInval || version > ms.invalVersion {
			n.insertLine(ms.block, cache.Shared, version)
		}
	} else {
		if ms.op == coherence.Store {
			version = n.p.oracle.WriteVersion(ms.block)
		}
		n.insertLine(ms.block, cache.Modified, version)
	}
	// Read everything out of the MSHR before invoking the completion
	// callback: the node's single MSHR is reused, and done may issue the
	// next access synchronously.
	block, supplier, latency, done := ms.block, ms.supplier, now-ms.issuedAt, ms.done
	if pr := n.p.probe; pr != nil {
		pr.MissWait(int64(latency))
		// The directory protocol has no ordering point or address
		// broadcast, so its lifecycle breakdown is the miss total only
		// (plus the shared data-fabric flight spans).
		pr.Span(obs.SpanMiss, int32(n.id), obs.LaneMSHR0, int32(n.id), 0, int64(ms.issuedAt), int64(latency))
	}
	n.p.oracle.Observe(n.id, block, version)
	done(coherence.AccessResult{
		Kind:    supplier,
		Latency: latency,
		Version: version,
	})
	n.p.run.AddMiss(supplier, latency)

	// Serve interventions that were waiting for this fill.
	if dl := n.deferred[block]; len(dl) > 0 {
		delete(n.deferred, block)
		for _, f := range dl {
			n.ownerFwd(f)
		}
	}
}

// insertLine fills a block, evicting as needed. Modified victims write
// back to their home and stay in the writeback buffer until acknowledged,
// so in-flight interventions can still be served.
func (n *node) insertLine(b coherence.Block, s cache.State, version uint64) {
	victim, evicted := n.cache.Insert(b, s, version)
	if !evicted || victim.State != cache.Modified {
		return
	}
	if _, dup := n.wb[victim.Block]; dup {
		panic(fmt.Sprintf("%s: node %d duplicate writeback for %x", n.p.Name(), n.id, victim.Block))
	}
	n.wb[victim.Block] = &wbEntry{version: victim.Version}
	home := coherence.HomeOf(victim.Block, n.p.topo.Nodes())
	n.p.send(vnetResponse, n.id, home, msg{
		kind: mWB, block: victim.Block, requester: n.id, version: victim.Version,
	})
}

// ownerFwd serves an intervention at the (supposed) owner.
func (n *node) ownerFwd(m msg) {
	state, version := n.cache.Peek(m.block)
	ready := n.p.k.Now() + n.p.params.Dcache
	home := coherence.HomeOf(m.block, n.p.topo.Nodes())
	switch {
	case state == cache.Modified:
		n.p.sendAt(ready, vnetResponse, n.id, m.requester, msg{
			kind: mData, txn: m.txn, block: m.block, version: version, supplier: stats.MissCacheToCache,
		})
		if m.txn == coherence.GetS {
			n.cache.SetState(m.block, cache.Shared)
			n.p.sendAt(ready, vnetResponse, n.id, home, msg{
				kind: mRevision, txn: coherence.GetS, block: m.block, version: version, keepCopy: true,
			})
		} else {
			n.cache.SetState(m.block, cache.Invalid)
			n.p.sendAt(ready, vnetResponse, n.id, home, msg{
				kind: mRevision, txn: coherence.GetX, block: m.block, version: version,
			})
		}
	case n.wb[m.block] != nil:
		// Evicted but not yet acknowledged: supply from the writeback
		// buffer; the home will squash the writeback when it completes
		// this episode.
		wb := n.wb[m.block]
		n.p.sendAt(ready, vnetResponse, n.id, m.requester, msg{
			kind: mData, txn: m.txn, block: m.block, version: wb.version, supplier: stats.MissCacheToCache,
		})
		n.p.sendAt(ready, vnetResponse, n.id, home, msg{
			kind: mRevision, txn: m.txn, block: m.block, version: wb.version, keepCopy: false,
		})
	case n.mshr != nil && n.mshr.block == m.block && n.mshr.txn == coherence.GetX:
		// The home granted us ownership but our fill is still in flight.
		n.deferred[m.block] = append(n.deferred[m.block], m)
	default:
		panic(fmt.Sprintf("%s: node %d intervention for block %x in state %v without data",
			n.p.Name(), n.id, m.block, state))
	}
}

// sharerInval invalidates a shared copy. A Modified copy (a newer grant)
// is never downgraded by a stale invalidation; a fill in flight records
// the invalidation's version so completion can discard the copy when the
// invalidation targeted it.
func (n *node) sharerInval(m msg) {
	if s, v := n.cache.Peek(m.block); s == cache.Shared && v <= m.version {
		n.cache.SetState(m.block, cache.Invalid)
	}
	if ms := n.mshr; ms != nil && ms.block == m.block && ms.txn == coherence.GetS {
		ms.sawInval = true
		if m.version > ms.invalVersion {
			ms.invalVersion = m.version
		}
	}
	if n.p.opts.Variant == Classic {
		n.p.send(vnetResponse, n.id, m.requester, msg{kind: mInvAck, block: m.block})
	}
}

// homeRevision completes a busy intervention episode at the home.
func (n *node) homeRevision(m msg) {
	e := n.entry(m.block)
	if !e.busy {
		panic(fmt.Sprintf("%s: revision for idle block %x", n.p.Name(), m.block))
	}
	oldOwner := e.owner
	if m.version > e.version {
		e.version = m.version
	}
	if e.busyTxn == coherence.GetS {
		e.state = dirS
		e.sharers = 1 << uint(e.busyReq)
		if m.keepCopy {
			e.sharers |= 1 << uint(oldOwner)
		}
		e.owner = -1
	} else {
		e.state = dirE
		e.owner = e.busyReq
	}
	e.busy = false

	// Writebacks held during the episode resolve against the new state:
	// the old owner's is stale (its intervention was served from the
	// writeback buffer); the incoming owner's, if its eviction outran the
	// revision, applies normally.
	held := e.heldWB
	e.heldWB = nil
	for _, wb := range held {
		n.applyWB(e, wb)
	}

	// DirOpt: serve the next queued request.
	n.drainQueue(e)
}

func (n *node) drainQueue(e *dirEntry) {
	for !e.busy && len(e.queue) > 0 {
		next := e.queue[0]
		e.queue = e.queue[1:]
		n.serveRequest(e, next)
	}
}

// homeWB processes a writeback at the home.
func (n *node) homeWB(m msg) {
	e := n.entry(m.block)
	if e.busy {
		// An intervention episode is in flight; hold the writeback until
		// it resolves.
		e.heldWB = append(e.heldWB, m)
		return
	}
	n.applyWB(e, m)
	n.drainQueue(e)
}

// applyWB resolves one writeback against a non-busy entry.
func (n *node) applyWB(e *dirEntry, m msg) {
	if e.state == dirE && e.owner == m.requester {
		if m.version > e.version {
			e.version = m.version
		}
		e.state = dirU
		e.owner = -1
		n.p.send(vnetForward, n.id, m.requester, msg{kind: mWBAck, block: m.block})
		return
	}
	// Stale writeback: ownership already moved on. Acknowledge so the
	// writer can free its buffer; the data was already supplied through
	// the intervention path.
	n.p.send(vnetForward, n.id, m.requester, msg{kind: mWBAck, block: m.block})
}

// ownerWBAck frees the writeback buffer entry.
func (n *node) ownerWBAck(m msg) {
	if n.wb[m.block] == nil {
		panic(fmt.Sprintf("%s: node %d writeback ack without entry", n.p.Name(), n.id))
	}
	delete(n.wb, m.block)
}
