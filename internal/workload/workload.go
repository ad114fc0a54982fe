// Package workload synthesizes the paper's benchmark reference streams.
//
// The paper drove its memory-system simulator from Simics full-system
// execution of five workloads: OLTP (DB2/TPC-C), DSS (DB2/TPC-H Q12), web
// serving (Apache+SURGE), web searching (Altavista), and barnes from
// SPLASH-2. Running those stacks is not possible here, so each benchmark
// is replaced by a synthetic generator calibrated to reproduce the
// first-order characteristics the paper's results depend on (Table 3):
//
//   - the data footprint ("total data touched"),
//   - the fraction of misses that are cache-to-cache transfers
//     (43/60/40/40/43 percent),
//   - contended hot blocks (locks) that trigger directory races and, for
//     DirClassic, nack storms (the paper's DSS anomaly).
//
// A generator mixes five access categories:
//
//   - private: per-processor data, mostly re-referenced within a hot
//     subset (L2 hits) with occasional cold walks (memory misses);
//   - migratory: read-modify-write records that move processor to
//     processor — the load misses to the previous owner's cache (a
//     cache-to-cache transfer) and the store upgrades from memory;
//   - read-shared: mostly-read data with a sporadic producer rewrite;
//   - lock: a handful of extremely hot test-and-set blocks;
//   - the per-category write ratios.
//
// Streams are deterministic functions of the per-processor RNG, so runs
// are exactly reproducible.
package workload

import (
	"fmt"

	"tsnoop/internal/coherence"
	"tsnoop/internal/sim"
)

// Access is one L2 reference.
type Access struct {
	Block coherence.Block
	Op    coherence.Op
	// Think is the number of instructions executed before this access.
	Think int
}

// Generator produces one processor's L2 reference stream.
type Generator interface {
	// Name is the benchmark name as used in the paper's tables.
	Name() string
	// FootprintBytes is the configured total data footprint.
	FootprintBytes() int64
	// Next returns cpu's next access, using r for all randomness.
	Next(cpu int, r *sim.Rand) Access
}

// Quotaed is implemented by workloads that carry their own warm-up and
// measured-phase quotas — recorded traces, whose length fixes both.
// Spec.ConfigFor uses these instead of the benchmark defaults.
type Quotaed interface {
	Quotas() (warmupPerCPU, measurePerCPU int)
}

// Wrapping is implemented by replay-style generators whose fixed stream
// can run dry and restart from the top. Wraps reports how often that
// happened; consumers treat a nonzero count as an error, since wrapped
// statistics silently re-measure warm data.
type Wrapping interface {
	Wraps() int
}

// Profile parameterizes a synthetic benchmark.
//
// Two migratory knobs shape the cache-to-cache fraction: a MigPair (an
// atomic load+store on a migratory record) misses twice — the load is
// supplied by the previous owner's cache (cache-to-cache) and the store
// upgrade by memory — contributing 50% cache-to-cache; a MigStore (a bare
// store handoff, e.g. enqueueing into another processor's work queue)
// misses straight to the previous owner's Modified copy, contributing
// 100%. Cold walks and read-shared re-fetches after a producer rewrite
// are (mostly) memory misses and dilute the fraction.
type Profile struct {
	Name        string
	FootprintMB float64

	// Category probabilities for each generated access (private hot
	// references get the remainder).
	LockFrac        float64 // test-and-set pair on a hot lock
	MigPairFrac     float64 // load+store pair on a migratory record
	MigStoreFrac    float64 // bare store handoff on a migratory record
	ReadSharedFrac  float64
	PrivateColdFrac float64 // cold walk over the whole private region

	// PrivateWriteFrac is the store ratio within private accesses.
	PrivateWriteFrac float64
	// ReadSharedWriteFrac is the producer-rewrite probability.
	ReadSharedWriteFrac float64

	// Pool sizes in blocks.
	HotBlocksPerCPU  int
	MigratoryBlocks  int
	ReadSharedBlocks int
	LockBlocks       int

	// MeanThink is the mean instruction count between L2 references.
	MeanThink float64
}

// cpuState carries the tiny amount of per-processor generator state: the
// second half of an atomic read-modify-write.
type cpuState struct {
	pendingStore bool
	pendingBlock coherence.Block
}

// Synthetic implements Generator from a Profile.
type Synthetic struct {
	prof       Profile
	cpus       int
	blockBytes int64

	privBlocksPerCPU int64
	migBase          coherence.Block
	rsBase           coherence.Block
	lockBase         coherence.Block
	privBase         coherence.Block

	state []cpuState
}

// NewSynthetic builds a generator for the given processor count.
func NewSynthetic(prof Profile, cpus int) (*Synthetic, error) {
	if cpus < 1 {
		return nil, fmt.Errorf("workload: need at least one cpu")
	}
	const blockBytes = 64
	total := int64(prof.FootprintMB * 1024 * 1024 / blockBytes)
	shared := int64(prof.MigratoryBlocks + prof.ReadSharedBlocks + prof.LockBlocks)
	if total <= shared {
		return nil, fmt.Errorf("workload %s: footprint %d blocks <= shared pools %d", prof.Name, total, shared)
	}
	g := &Synthetic{
		prof:             prof,
		cpus:             cpus,
		blockBytes:       blockBytes,
		privBlocksPerCPU: (total - shared) / int64(cpus),
		state:            make([]cpuState, cpus),
	}
	// Address map: [locks][migratory][read-shared][private x cpus].
	g.lockBase = 0
	g.migBase = coherence.Block(prof.LockBlocks)
	g.rsBase = g.migBase + coherence.Block(prof.MigratoryBlocks)
	g.privBase = g.rsBase + coherence.Block(prof.ReadSharedBlocks)
	return g, nil
}

// MustSynthetic is NewSynthetic but panics on error.
func MustSynthetic(prof Profile, cpus int) *Synthetic {
	g, err := NewSynthetic(prof, cpus)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Generator.
func (g *Synthetic) Name() string { return g.prof.Name }

// FootprintBytes implements Generator.
func (g *Synthetic) FootprintBytes() int64 {
	return int64(g.prof.FootprintMB * 1024 * 1024)
}

// TotalBlocks returns the number of distinct blocks the generator can
// reference.
func (g *Synthetic) TotalBlocks() int64 {
	return int64(g.privBase) + g.privBlocksPerCPU*int64(g.cpus)
}

// Next implements Generator.
func (g *Synthetic) Next(cpu int, r *sim.Rand) Access {
	st := &g.state[cpu]
	think := r.Geometric(g.prof.MeanThink)

	// Complete an atomic read-modify-write begun by the previous access.
	if st.pendingStore {
		st.pendingStore = false
		return Access{Block: st.pendingBlock, Op: coherence.Store, Think: 1 + think/8}
	}

	roll := r.Float64()
	cut := g.prof.LockFrac
	if roll < cut {
		// Test-and-set on a hot lock: load then store.
		b := g.lockBase + coherence.Block(r.Intn(g.prof.LockBlocks))
		st.pendingStore = true
		st.pendingBlock = b
		return Access{Block: b, Op: coherence.Load, Think: think}
	}
	cut += g.prof.MigPairFrac
	if roll < cut {
		// Migratory record: read-modify-write that hops between cpus.
		b := g.migBase + coherence.Block(r.Intn(g.prof.MigratoryBlocks))
		st.pendingStore = true
		st.pendingBlock = b
		return Access{Block: b, Op: coherence.Load, Think: think}
	}
	cut += g.prof.MigStoreFrac
	if roll < cut {
		// Bare store handoff: the fill comes straight from the previous
		// owner's Modified copy.
		b := g.migBase + coherence.Block(r.Intn(g.prof.MigratoryBlocks))
		return Access{Block: b, Op: coherence.Store, Think: think}
	}
	cut += g.prof.ReadSharedFrac
	if roll < cut {
		b := g.rsBase + coherence.Block(r.Intn(g.prof.ReadSharedBlocks))
		op := coherence.Load
		if r.Bool(g.prof.ReadSharedWriteFrac) {
			op = coherence.Store
		}
		return Access{Block: b, Op: op, Think: think}
	}
	cut += g.prof.PrivateColdFrac
	base := g.privBase + coherence.Block(int64(cpu)*g.privBlocksPerCPU)
	var b coherence.Block
	if roll < cut {
		// Cold walk across the whole private region (footprint driver,
		// memory miss).
		b = base + coherence.Block(r.Int63n(g.privBlocksPerCPU))
	} else {
		span := int64(g.prof.HotBlocksPerCPU)
		if span < 1 || span > g.privBlocksPerCPU {
			span = g.privBlocksPerCPU
		}
		b = base + coherence.Block(r.Int63n(span))
	}
	op := coherence.Load
	if r.Bool(g.prof.PrivateWriteFrac) {
		op = coherence.Store
	}
	return Access{Block: b, Op: op, Think: think}
}
