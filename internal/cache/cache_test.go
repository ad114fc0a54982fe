package cache

import (
	"testing"
	"testing/quick"

	"tsnoop/internal/coherence"
)

func small() *Cache {
	// 8 sets x 2 ways x 64B = 1 KiB.
	return MustNew(Config{SizeBytes: 1024, Ways: 2, BlockBytes: 64})
}

func TestGeometry(t *testing.T) {
	c := MustNew(DefaultConfig())
	if c.Sets() != 16384 {
		t.Errorf("sets = %d, want 16384", c.Sets())
	}
	if c.Ways() != 4 {
		t.Errorf("ways = %d", c.Ways())
	}
	if c.BlockBytes() != 64 {
		t.Errorf("block = %d", c.BlockBytes())
	}
}

func TestBadGeometry(t *testing.T) {
	if _, err := New(Config{SizeBytes: 0, Ways: 4, BlockBytes: 64}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(Config{SizeBytes: 3 * 64, Ways: 2, BlockBytes: 64}); err == nil {
		t.Error("non-divisible lines accepted")
	}
	if _, err := New(Config{SizeBytes: 6 * 64, Ways: 2, BlockBytes: 64}); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
}

func TestInsertLookup(t *testing.T) {
	c := small()
	if s, _ := c.Lookup(42); s != Invalid {
		t.Fatalf("empty lookup = %v", s)
	}
	if _, ev := c.Insert(42, Shared, 7); ev {
		t.Fatal("insert into empty set evicted")
	}
	s, v := c.Lookup(42)
	if s != Shared || v != 7 {
		t.Fatalf("lookup = %v/%d, want S/7", s, v)
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := small()
	c.Insert(42, Shared, 1)
	if _, ev := c.Insert(42, Modified, 2); ev {
		t.Fatal("in-place update evicted")
	}
	s, v := c.Peek(42)
	if s != Modified || v != 2 {
		t.Fatalf("peek = %v/%d", s, v)
	}
	if c.CountState(Modified) != 1 || c.CountState(Shared) != 0 {
		t.Fatal("duplicate lines after in-place insert")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 ways; blocks 0, 8, 16 map to set 0
	c.Insert(0, Shared, 0)
	c.Insert(8, Shared, 0)
	c.Lookup(0) // touch 0: 8 becomes LRU
	v, ev := c.Insert(16, Modified, 3)
	if !ev {
		t.Fatal("no eviction from full set")
	}
	if v.Block != 8 || v.State != Shared {
		t.Fatalf("evicted %+v, want block 8 S", v)
	}
	if s, _ := c.Peek(0); s != Shared {
		t.Fatal("block 0 lost")
	}
	if s, _ := c.Peek(8); s != Invalid {
		t.Fatal("block 8 still present")
	}
}

func TestEvictionReportsVersion(t *testing.T) {
	c := small()
	c.Insert(0, Modified, 9)
	c.Insert(8, Shared, 1)
	c.Insert(16, Shared, 2) // evicts LRU = 0
	v, ev := c.Insert(24, Shared, 3)
	_ = v
	_ = ev
	// First eviction was block 0 with version 9; verify via CountState
	// bookkeeping that M count dropped.
	if c.CountState(Modified) != 0 {
		t.Fatal("modified line survived eviction accounting")
	}
}

func TestSetStateAndVersion(t *testing.T) {
	c := small()
	c.Insert(5, Modified, 1)
	c.SetState(5, Shared)
	if s, _ := c.Peek(5); s != Shared {
		t.Fatal("SetState failed")
	}
	c.SetVersion(5, 10)
	if _, v := c.Peek(5); v != 10 {
		t.Fatal("SetVersion failed")
	}
	c.SetState(5, Invalid)
	if s, _ := c.Peek(5); s != Invalid {
		t.Fatal("invalidate failed")
	}
}

func TestSetStateAbsentPanics(t *testing.T) {
	c := small()
	defer func() {
		if recover() == nil {
			t.Fatal("SetState on absent block did not panic")
		}
	}()
	c.SetState(5, Shared)
}

func TestInsertInvalidPanics(t *testing.T) {
	c := small()
	defer func() {
		if recover() == nil {
			t.Fatal("Insert Invalid did not panic")
		}
	}()
	c.Insert(1, Invalid, 0)
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := small()
	c.Insert(0, Shared, 0)
	c.Insert(8, Shared, 0)
	c.Peek(0) // must NOT refresh block 0
	v, ev := c.Insert(16, Shared, 0)
	if !ev || v.Block != 0 {
		t.Fatalf("evicted %+v, want block 0 (Peek refreshed LRU?)", v)
	}
}

func TestForEach(t *testing.T) {
	c := small()
	c.Insert(1, Shared, 1)
	c.Insert(2, Modified, 2)
	got := map[coherence.Block]State{}
	c.ForEach(func(b coherence.Block, s State, v uint64) { got[b] = s })
	if len(got) != 2 || got[1] != Shared || got[2] != Modified {
		t.Fatalf("ForEach = %v", got)
	}
}

// Property: a cache never holds two lines for the same block, and resident
// count never exceeds capacity.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small()
		for _, o := range ops {
			b := coherence.Block(o % 64)
			switch o % 3 {
			case 0:
				c.Insert(b, Shared, uint64(o))
			case 1:
				c.Insert(b, Modified, uint64(o))
			case 2:
				if s, _ := c.Lookup(b); s != Invalid {
					c.SetState(b, Invalid)
				}
			}
			seen := map[coherence.Block]int{}
			total := 0
			c.ForEach(func(b coherence.Block, s State, v uint64) {
				seen[b]++
				total++
			})
			for b, n := range seen {
				if n > 1 {
					_ = b
					return false
				}
			}
			if total > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
}

func TestOwnedState(t *testing.T) {
	c := small()
	c.Insert(3, Owned, 5)
	if s, v := c.Peek(3); s != Owned || v != 5 {
		t.Fatalf("peek = %v/%d", s, v)
	}
	if Owned.String() != "O" {
		t.Fatal("Owned string")
	}
	if !Owned.Dirty() || !Modified.Dirty() {
		t.Fatal("O and M must be dirty")
	}
	if Shared.Dirty() || Invalid.Dirty() {
		t.Fatal("S and I must be clean")
	}
	if c.CountState(Owned) != 1 {
		t.Fatal("CountState(Owned)")
	}
}

// refLine is the reference model's view of one resident block.
type refLine struct {
	state   State
	version uint64
}

// refCache is the reference model of a true-LRU set-associative cache:
// a map of resident blocks plus, per set, the resident blocks in LRU
// order (least recently used first).
type refCache struct {
	sets    int
	ways    int
	lines   map[coherence.Block]refLine
	lruList [][]coherence.Block
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, lines: map[coherence.Block]refLine{}, lruList: make([][]coherence.Block, sets)}
}

func (r *refCache) set(b coherence.Block) int { return int(uint64(b) % uint64(r.sets)) }

// touch moves b to the most recently used end of its set.
func (r *refCache) touch(b coherence.Block) {
	s := r.set(b)
	r.drop(b)
	r.lruList[s] = append(r.lruList[s], b)
}

func (r *refCache) drop(b coherence.Block) {
	s := r.set(b)
	for i, x := range r.lruList[s] {
		if x == b {
			r.lruList[s] = append(r.lruList[s][:i], r.lruList[s][i+1:]...)
			return
		}
	}
}

func (r *refCache) insert(b coherence.Block, s State, v uint64) (Victim, bool) {
	if _, ok := r.lines[b]; ok {
		r.lines[b] = refLine{s, v}
		r.touch(b)
		return Victim{}, false
	}
	var vic Victim
	has := false
	if set := r.set(b); len(r.lruList[set]) == r.ways {
		old := r.lruList[set][0]
		vic = Victim{Block: old, State: r.lines[old].state, Version: r.lines[old].version}
		has = true
		delete(r.lines, old)
		r.drop(old)
	}
	r.lines[b] = refLine{s, v}
	r.touch(b)
	return vic, has
}

// TestCacheMatchesReferenceModel drives the cache and the reference
// model with the same random operation stream and requires identical
// answers from every operation: one cache alone, and the 4 caches of
// one node-major group, interleaved, each against its own model — every
// node's lines must stay apart from every other's in the shared store.
func TestCacheMatchesReferenceModel(t *testing.T) {
	const sets, ways = 8, 4
	cfg := Config{SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64}
	t.Run("single", func(t *testing.T) { matchReferenceModels(t, []*Cache{MustNew(cfg)}, sets, ways) })
	t.Run("group", func(t *testing.T) { matchReferenceModels(t, MustNewGroup(cfg, 4), sets, ways) })
}

// matchReferenceModels runs the random operation stream over caches,
// picking the cache of each operation at random, against one reference
// model per cache.
func matchReferenceModels(t *testing.T, caches []*Cache, sets, ways int) {
	const blocks = 80
	refs := make([]*refCache, len(caches))
	for i := range refs {
		refs[i] = newRefCache(sets, ways)
	}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for op := 0; op < 200_000; op++ {
		node := 0
		if len(caches) > 1 {
			node = next(len(caches))
		}
		c, ref := caches[node], refs[node]
		b := coherence.Block(next(blocks))
		want, resident := ref.lines[b]
		switch k := next(7); k {
		case 0, 1:
			s, v := c.Lookup(b)
			if resident {
				ref.touch(b)
			}
			if s != want.state || v != want.version {
				t.Fatalf("op %d, node %d: Lookup(%d) = %v/%d, want %v/%d", op, node, b, s, v, want.state, want.version)
			}
		case 2:
			s, v := c.Peek(b)
			if s != want.state || v != want.version {
				t.Fatalf("op %d, node %d: Peek(%d) = %v/%d, want %v/%d", op, node, b, s, v, want.state, want.version)
			}
		case 3, 4:
			s := State(1 + next(3))
			v := uint64(op)
			gv, gok := c.Insert(b, s, v)
			wv, wok := ref.insert(b, s, v)
			if gv != wv || gok != wok {
				t.Fatalf("op %d, node %d: Insert(%d) evicted %+v/%v, want %+v/%v", op, node, b, gv, gok, wv, wok)
			}
		case 5:
			if !resident {
				continue
			}
			s := State(next(4))
			c.SetState(b, s)
			if s == Invalid {
				delete(ref.lines, b)
				ref.drop(b)
			} else {
				ref.lines[b] = refLine{s, want.version}
			}
		case 6:
			if !resident {
				continue
			}
			c.SetVersion(b, uint64(op)<<8)
			ref.lines[b] = refLine{want.state, uint64(op) << 8}
		}
		if op%997 == 0 {
			got := map[coherence.Block]refLine{}
			c.ForEach(func(b coherence.Block, s State, v uint64) {
				if _, dup := got[b]; dup {
					t.Fatalf("op %d, node %d: ForEach visits %d twice", op, node, b)
				}
				got[b] = refLine{s, v}
			})
			if len(got) != len(ref.lines) {
				t.Fatalf("op %d, node %d: ForEach visits %d lines, want %d", op, node, len(got), len(ref.lines))
			}
			for b, l := range ref.lines {
				if got[b] != l {
					t.Fatalf("op %d, node %d: ForEach(%d) = %+v, want %+v", op, node, b, got[b], l)
				}
			}
			for s := Invalid; s <= Modified; s++ {
				want := 0
				for _, l := range ref.lines {
					if l.state == s {
						want++
					}
				}
				if s == Invalid {
					want = sets*ways - len(ref.lines)
				}
				if n := c.CountState(s); n != want {
					t.Fatalf("op %d, node %d: CountState(%v) = %d, want %d", op, node, s, n, want)
				}
			}
		}
	}
}
