package workload

import (
	"fmt"
	"sort"
	"strings"
)

// The five benchmark profiles, calibrated so that a 16-processor run with
// the paper's 4 MB caches lands near Table 3's cache-to-cache miss
// fractions:
//
//	OLTP 43%, DSS 60%, apache 40%, altavista 40%, barnes 43%
//
// and preserves the footprint and miss-count orderings (OLTP largest,
// barnes smallest). calibration_test.go asserts the realized fractions
// stay within tolerance.
//
// A rough steady-state model guides the numbers: with lock/migratory-pair
// decision fraction a, bare-store handoff fraction s, and cold-walk
// fraction c, the cache-to-cache share of misses is (a+s)/(2a+s+c) — pairs
// miss twice (one cache-to-cache, one memory), handoffs miss once
// (cache-to-cache), cold walks miss once (memory).

// OLTP models DB2 running a TPC-C-like workload: a large footprint, many
// concurrent read/write transactions over warehouse records (migratory),
// shared catalog/index pages (read-shared), and latch contention.
func OLTP(cpus int) *Synthetic {
	return MustSynthetic(Profile{
		Name:                "OLTP",
		FootprintMB:         47.1,
		LockFrac:            0.012,
		MigPairFrac:         0.048,
		MigStoreFrac:        0.066,
		ReadSharedFrac:      0.120,
		PrivateColdFrac:     0.041,
		PrivateWriteFrac:    0.30,
		ReadSharedWriteFrac: 0.012,
		HotBlocksPerCPU:     512,
		MigratoryBlocks:     512,
		ReadSharedBlocks:    320,
		LockBlocks:          48,
		MeanThink:           35,
	}, cpus)
}

// DSS models DB2 executing TPC-H query 12: a smaller memory-resident
// database scanned by cooperating operators with intra-query parallelism.
// Exchange-operator handoffs make the sharing intensely migratory (60%
// cache-to-cache) and the hot latches trigger the nack storms the paper
// observed under DirClassic ("due, in part, to a large number of nacks").
func DSS(cpus int) *Synthetic {
	return MustSynthetic(Profile{
		Name:                "DSS",
		FootprintMB:         8.7,
		LockFrac:            0.030,
		MigPairFrac:         0.012,
		MigStoreFrac:        0.164,
		ReadSharedFrac:      0.100,
		PrivateColdFrac:     0.055,
		PrivateWriteFrac:    0.15,
		ReadSharedWriteFrac: 0.008,
		HotBlocksPerCPU:     192,
		MigratoryBlocks:     384,
		ReadSharedBlocks:    192,
		LockBlocks:          6,
		MeanThink:           45,
	}, cpus)
}

// Apache models the Apache web server driven by SURGE: worker processes
// serving a shared document corpus, with accept-queue and scoreboard
// contention.
func Apache(cpus int) *Synthetic {
	return MustSynthetic(Profile{
		Name:                "apache",
		FootprintMB:         13.3,
		LockFrac:            0.010,
		MigPairFrac:         0.040,
		MigStoreFrac:        0.051,
		ReadSharedFrac:      0.160,
		PrivateColdFrac:     0.050,
		PrivateWriteFrac:    0.25,
		ReadSharedWriteFrac: 0.015,
		HotBlocksPerCPU:     256,
		MigratoryBlocks:     448,
		ReadSharedBlocks:    288,
		LockBlocks:          24,
		MeanThink:           40,
	}, cpus)
}

// Altavista models the Altavista search engine: query threads walking a
// large shared read-mostly index with occasional index maintenance and
// result-buffer handoffs.
func Altavista(cpus int) *Synthetic {
	return MustSynthetic(Profile{
		Name:                "altavista",
		FootprintMB:         15.3,
		LockFrac:            0.008,
		MigPairFrac:         0.042,
		MigStoreFrac:        0.058,
		ReadSharedFrac:      0.200,
		PrivateColdFrac:     0.047,
		PrivateWriteFrac:    0.18,
		ReadSharedWriteFrac: 0.012,
		HotBlocksPerCPU:     288,
		MigratoryBlocks:     448,
		ReadSharedBlocks:    320,
		LockBlocks:          20,
		MeanThink:           38,
	}, cpus)
}

// Barnes models the SPLASH-2 barnes-hut N-body kernel (16K bodies): a
// small footprint, body records that migrate between processors during
// tree building, and read-shared tree cells during force computation.
func Barnes(cpus int) *Synthetic {
	return MustSynthetic(Profile{
		Name:                "barnes",
		FootprintMB:         4.0,
		LockFrac:            0.008,
		MigPairFrac:         0.042,
		MigStoreFrac:        0.042,
		ReadSharedFrac:      0.130,
		PrivateColdFrac:     0.055,
		PrivateWriteFrac:    0.28,
		ReadSharedWriteFrac: 0.010,
		HotBlocksPerCPU:     96,
		MigratoryBlocks:     384,
		ReadSharedBlocks:    160,
		LockBlocks:          16,
		MeanThink:           50,
	}, cpus)
}

// Benchmarks returns the five paper benchmarks in presentation order.
func Benchmarks(cpus int) []*Synthetic {
	return []*Synthetic{OLTP(cpus), DSS(cpus), Apache(cpus), Altavista(cpus), Barnes(cpus)}
}

// MeasureQuota returns the per-processor measured-phase quota used for
// each benchmark, scaled so the realized miss counts preserve Table 3's
// ordering (OLTP 5.3M largest ... barnes 1.0M smallest).
func MeasureQuota(name string) int {
	switch name {
	case "OLTP":
		return 5000
	case "DSS":
		return 1500
	case "apache":
		return 2200
	case "altavista":
		return 2400
	case "barnes":
		return 1000
	default:
		return 2500
	}
}

// Uniform is a microbenchmark generator: uniform random accesses over a
// fixed pool with a fixed write fraction; used by validation tests and
// the latency probes.
func Uniform(blocks int, writeFrac float64, meanThink float64, cpus int) *Synthetic {
	return MustSynthetic(Profile{
		Name:                "uniform",
		FootprintMB:         float64(blocks*64) / (1024 * 1024) * 4,
		ReadSharedFrac:      1.0,
		ReadSharedWriteFrac: writeFrac,
		ReadSharedBlocks:    blocks,
		MeanThink:           meanThink,
	}, cpus)
}

// synthetic returns a fresh synthetic generator for a paper benchmark
// name, or nil for an unknown name.
func synthetic(name string, cpus int) *Synthetic {
	switch name {
	case "OLTP":
		return OLTP(cpus)
	case "DSS":
		return DSS(cpus)
	case "apache":
		return Apache(cpus)
	case "altavista":
		return Altavista(cpus)
	case "barnes":
		return Barnes(cpus)
	default:
		return nil
	}
}

// resolvers maps a name-scheme prefix (the "trace" in "trace:<path>") to
// its resolution function. Schemes register from an init — see
// internal/trace, which provides trace:<path> replay workloads.
var resolvers = map[string]func(arg string, cpus int) (Generator, error){}

// RegisterScheme makes ByName resolve "<scheme>:<arg>" names through
// resolve. Registering a scheme twice panics.
func RegisterScheme(scheme string, resolve func(arg string, cpus int) (Generator, error)) {
	if _, dup := resolvers[scheme]; dup {
		panic("workload: duplicate scheme " + scheme)
	}
	resolvers[scheme] = resolve
}

// ByName returns a fresh generator for a workload name: one of the paper
// benchmarks, or a registered scheme name such as "trace:<path>".
// Generators are stateful; every run needs a fresh one, so look one up
// per run.
func ByName(name string, cpus int) (Generator, error) {
	if cpus < 1 {
		return nil, fmt.Errorf("workload: %q needs at least one cpu, got %d", name, cpus)
	}
	if scheme, arg, ok := strings.Cut(name, ":"); ok {
		if resolve := resolvers[scheme]; resolve != nil {
			return resolve(arg, cpus)
		}
		return nil, fmt.Errorf("workload: unknown scheme %q in %q (have %s)", scheme, name, strings.Join(ValidNames(), ", "))
	}
	if g := synthetic(name, cpus); g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (have %s)", name, strings.Join(ValidNames(), ", "))
}

// CheckName reports (without IO) whether name would resolve: a paper
// benchmark or a registered scheme name. The error is a one-line
// diagnostic listing the valid names.
func CheckName(name string) error {
	if scheme, _, ok := strings.Cut(name, ":"); ok {
		if _, registered := resolvers[scheme]; registered {
			return nil
		}
		return fmt.Errorf("unknown workload scheme %q in %q (have %s)", scheme, name, strings.Join(ValidNames(), ", "))
	}
	for _, n := range Names() {
		if name == n {
			return nil
		}
	}
	return fmt.Errorf("unknown benchmark %q (have %s)", name, strings.Join(ValidNames(), ", "))
}

// Names lists the paper benchmarks in presentation order.
func Names() []string { return []string{"OLTP", "DSS", "apache", "altavista", "barnes"} }

// ValidNames lists everything ByName accepts: the paper benchmarks plus
// one "<scheme>:<arg>" placeholder per registered scheme.
func ValidNames() []string {
	names := Names()
	schemes := make([]string, 0, len(resolvers))
	for s := range resolvers {
		schemes = append(schemes, s+":<path>")
	}
	sort.Strings(schemes)
	return append(names, schemes...)
}
