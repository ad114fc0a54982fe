// Package cache models the unified level-two cache of each node: 4 MByte,
// 4-way set associative, 64-byte blocks in the paper's target system, with
// true LRU replacement and MSI stable states. Transient (in-flight) states
// live in the protocol controllers' MSHRs, not here.
//
// A machine's caches share one node-major store (NewGroup): the tags of
// all nodes are one [set][node][way] array, allocated once, and the
// rest of each way's bookkeeping sits at the same index of a parallel
// array. A Cache is one node's view of it. Snooping puts the lookups of
// one block by every node back to back — each node's handoff of an
// ordered broadcast — and they all index the same set, so with 16 nodes
// of 4 ways they read 512 contiguous bytes of tags instead of one host
// cache line in each of 16 per-node arrays megabytes apart. Lookups by
// one node alone, the only other kind, touch one 32-byte run of tags
// either way.
package cache

import (
	"fmt"

	"tsnoop/internal/coherence"
)

// State is a MOSI stable state.
type State int

// States. The paper's evaluated protocols are MSI; the Owned state is the
// MOESI extension discussed in Section 3 and implemented by tssnoop's
// UseOwnedState option (the E state's shared-signal requirement is what
// the paper recommends forgoing, so it is not modelled).
const (
	Invalid State = iota
	Shared
	Owned
	Modified
)

// Dirty reports whether a line in this state must be written back on
// eviction.
func (s State) Dirty() bool { return s == Modified || s == Owned }

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// meta is one way's bookkeeping apart from its tag: the version and
// the LRU clock of its last use, with the state packed into the clock's
// two low bits. 16 bytes instead of a 32-byte line struct.
type meta struct {
	version uint64 // data value surrogate for the coherence checker
	use     uint64 // lastUse<<2 | state
}

func (m *meta) state() State     { return State(m.use & 3) }
func (m *meta) lastUse() uint64  { return m.use >> 2 }
func (m *meta) setState(s State) { m.use = m.use&^3 | uint64(s) }

// Cache is a set-associative cache indexed by block address: one node's
// view of its group's store.
//
// Every node snoops every broadcast, so most lookups miss: tags are kept
// dense, apart from the rest of a way's bookkeeping, so that a miss in
// a 4-way set reads one 32-byte run of tags — one host cache line — and
// touches nothing else.
type Cache struct {
	// tags and meta are the group's store: this node's ways of set i are
	// [i*stride+off, i*stride+off+ways). An invalid way keeps its stale
	// tag, so a tag match counts only when its meta state is valid.
	tags    []coherence.Block
	meta    []meta
	stride  int // ways of one set across the group
	off     int // this node's first way within a set
	setMask uint64
	ways    int
	clock   uint64

	// Size bookkeeping for reports.
	blockBytes int
	sizeBytes  int
}

// Config describes a cache geometry.
type Config struct {
	SizeBytes  int // total capacity
	Ways       int
	BlockBytes int
}

// DefaultConfig is the paper's L2: 4 MByte, 4-way, 64-byte blocks.
func DefaultConfig() Config {
	return Config{SizeBytes: 4 << 20, Ways: 4, BlockBytes: 64}
}

// New constructs a cache. Geometry must be a power-of-two number of sets.
func New(cfg Config) (*Cache, error) {
	g, err := NewGroup(cfg, 1)
	if err != nil {
		return nil, err
	}
	return g[0], nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewGroup constructs the caches of a machine of the given number of
// nodes, all of geometry cfg, over one node-major store (see the
// package doc). The caches are independent; only their layout is
// shared.
func NewGroup(cfg Config, nodes int) ([]*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	if nodes < 1 {
		return nil, fmt.Errorf("cache: group of %d nodes", nodes)
	}
	nLines := cfg.SizeBytes / cfg.BlockBytes
	if nLines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", nLines, cfg.Ways)
	}
	nSets := nLines / cfg.Ways
	if nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", nSets)
	}
	// One allocation per array for the whole group: building per-node
	// arrays first would only raise the peak footprint.
	tags := make([]coherence.Block, nLines*nodes)
	metas := make([]meta, nLines*nodes)
	views := make([]Cache, nodes)
	g := make([]*Cache, nodes)
	for i := range views {
		views[i] = Cache{
			tags:       tags,
			meta:       metas,
			stride:     nodes * cfg.Ways,
			off:        i * cfg.Ways,
			setMask:    uint64(nSets - 1),
			ways:       cfg.Ways,
			blockBytes: cfg.BlockBytes,
			sizeBytes:  cfg.SizeBytes,
		}
		g[i] = &views[i]
	}
	return g, nil
}

// MustNewGroup is NewGroup but panics on error.
func MustNewGroup(cfg Config, nodes int) []*Cache {
	g, err := NewGroup(cfg, nodes)
	if err != nil {
		panic(err)
	}
	return g
}

// BlockBytes returns the block size in bytes.
func (c *Cache) BlockBytes() int { return c.blockBytes }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// base returns the index of this node's first way of b's set.
func (c *Cache) base(b coherence.Block) int { return int(uint64(b)&c.setMask)*c.stride + c.off }

// find returns the meta of b's valid way, or nil when b is absent.
func (c *Cache) find(b coherence.Block) *meta {
	i := c.base(b)
	tags := c.tags[i : i+c.ways : i+c.ways]
	for w := range tags {
		if tags[w] == b {
			if m := &c.meta[i+w]; m.state() != Invalid {
				return m
			}
		}
	}
	return nil
}

// Lookup returns the state of block b (Invalid when absent) and its
// version, updating LRU on a valid hit.
func (c *Cache) Lookup(b coherence.Block) (State, uint64) {
	if m := c.find(b); m != nil {
		c.clock++
		m.use = c.clock<<2 | m.use&3
		return m.state(), m.version
	}
	return Invalid, 0
}

// Peek is Lookup without the LRU side effect.
func (c *Cache) Peek(b coherence.Block) (State, uint64) {
	if m := c.find(b); m != nil {
		return m.state(), m.version
	}
	return Invalid, 0
}

// SetState transitions a resident block to a new state (Invalid drops it).
// It panics when the block is absent: protocol controllers must never
// downgrade a line they do not hold.
func (c *Cache) SetState(b coherence.Block, s State) {
	m := c.find(b)
	if m == nil {
		panic(fmt.Sprintf("cache: SetState(%x) on absent block", b))
	}
	m.setState(s)
}

// SetVersion updates a resident block's version (a completed store).
func (c *Cache) SetVersion(b coherence.Block, v uint64) {
	m := c.find(b)
	if m == nil {
		panic(fmt.Sprintf("cache: SetVersion(%x) on absent block", b))
	}
	m.version = v
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Block   coherence.Block
	State   State
	Version uint64
}

// Insert places block b with the given state and version, evicting the LRU
// line of the set if necessary. It returns the evicted line, if any.
// Inserting an already-resident block updates it in place.
func (c *Cache) Insert(b coherence.Block, s State, version uint64) (Victim, bool) {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	c.clock++
	if m := c.find(b); m != nil {
		*m = meta{version: version, use: c.clock<<2 | uint64(s)}
		return Victim{}, false
	}
	i := c.base(b)
	set := c.meta[i : i+c.ways : i+c.ways]
	// Prefer an invalid way; otherwise evict true-LRU.
	victim := -1
	for w := range set {
		if set[w].state() == Invalid {
			victim = w
			break
		}
	}
	evicted := Victim{}
	has := false
	if victim < 0 {
		victim = 0
		for w := 1; w < len(set); w++ {
			if set[w].lastUse() < set[victim].lastUse() {
				victim = w
			}
		}
		evicted = Victim{Block: c.tags[i+victim], State: set[victim].state(), Version: set[victim].version}
		has = true
	}
	c.tags[i+victim] = b
	set[victim] = meta{version: version, use: c.clock<<2 | uint64(s)}
	return evicted, has
}

// CountState returns how many lines of this cache are in state s (test
// support and end-of-run invariant checks).
func (c *Cache) CountState(s State) int {
	n := 0
	for i := c.off; i < len(c.meta); i += c.stride {
		for _, m := range c.meta[i : i+c.ways] {
			if m.state() == s {
				n++
			}
		}
	}
	return n
}

// ForEach invokes fn for every valid line of this cache, set by set.
func (c *Cache) ForEach(fn func(b coherence.Block, s State, version uint64)) {
	for i := c.off; i < len(c.meta); i += c.stride {
		for w := i; w < i+c.ways; w++ {
			if m := &c.meta[w]; m.state() != Invalid {
				fn(c.tags[w], m.state(), m.version)
			}
		}
	}
}
