// Package cache models the unified level-two cache of each node: 4 MByte,
// 4-way set associative, 64-byte blocks in the paper's target system, with
// true LRU replacement and MSI stable states. Transient (in-flight) states
// live in the protocol controllers' MSHRs, not here.
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

// Line is one cache line's bookkeeping.
type line struct {
	block   coherence.Block
	state   State
	version uint64 // data value surrogate for the coherence checker
	lastUse uint64 // LRU clock
}

// Cache is a set-associative cache indexed by block address.
type Cache struct {
	// lines holds every set back to back: set i is
	// lines[i*ways : i*ways+ways]. One contiguous array (not a slice
	// header per set) saves 24 bytes per set — 16K sets in a 4 MB
	// cache — and a dependent load on every lookup.
	lines   []line
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
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	nLines := cfg.SizeBytes / cfg.BlockBytes
	if nLines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", nLines, cfg.Ways)
	}
	nSets := nLines / cfg.Ways
	if nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", nSets)
	}
	c := &Cache{
		lines:      make([]line, nLines),
		setMask:    uint64(nSets - 1),
		ways:       cfg.Ways,
		blockBytes: cfg.BlockBytes,
		sizeBytes:  cfg.SizeBytes,
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// BlockBytes returns the block size in bytes.
func (c *Cache) BlockBytes() int { return c.blockBytes }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) set(b coherence.Block) []line {
	i := int(uint64(b)&c.setMask) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

func (c *Cache) find(b coherence.Block) *line {
	set := c.set(b)
	for i := range set {
		if set[i].state != Invalid && set[i].block == b {
			return &set[i]
		}
	}
	return nil
}

// Lookup returns the state of block b (Invalid when absent) and its
// version, updating LRU on a valid hit.
func (c *Cache) Lookup(b coherence.Block) (State, uint64) {
	if l := c.find(b); l != nil {
		c.clock++
		l.lastUse = c.clock
		return l.state, l.version
	}
	return Invalid, 0
}

// Peek is Lookup without the LRU side effect.
func (c *Cache) Peek(b coherence.Block) (State, uint64) {
	if l := c.find(b); l != nil {
		return l.state, l.version
	}
	return Invalid, 0
}

// SetState transitions a resident block to a new state (Invalid drops it).
// It panics when the block is absent: protocol controllers must never
// downgrade a line they do not hold.
func (c *Cache) SetState(b coherence.Block, s State) {
	l := c.find(b)
	if l == nil {
		panic(fmt.Sprintf("cache: SetState(%x) on absent block", b))
	}
	l.state = s
}

// SetVersion updates a resident block's version (a completed store).
func (c *Cache) SetVersion(b coherence.Block, v uint64) {
	l := c.find(b)
	if l == nil {
		panic(fmt.Sprintf("cache: SetVersion(%x) on absent block", b))
	}
	l.version = v
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
	if l := c.find(b); l != nil {
		l.state = s
		l.version = version
		l.lastUse = c.clock
		return Victim{}, false
	}
	set := c.set(b)
	// Prefer an invalid way; otherwise evict true-LRU.
	victim := -1
	for i := range set {
		if set[i].state == Invalid {
			victim = i
			break
		}
	}
	evicted := Victim{}
	has := false
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
		evicted = Victim{Block: set[victim].block, State: set[victim].state, Version: set[victim].version}
		has = true
	}
	set[victim] = line{block: b, state: s, version: version, lastUse: c.clock}
	return evicted, has
}

// CountState returns how many resident lines are in state s (test support
// and end-of-run invariant checks).
func (c *Cache) CountState(s State) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state == s {
			n++
		}
	}
	return n
}

// ForEach invokes fn for every valid line.
func (c *Cache) ForEach(fn func(b coherence.Block, s State, version uint64)) {
	for _, l := range c.lines {
		if l.state != Invalid {
			fn(l.block, l.state, l.version)
		}
	}
}
