package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"testing"
)

func newTestBench(seed uint64) *bench {
	return &bench{workload: "test", seed: seed, log: io.Discard, metrics: map[string]float64{}}
}

func TestDigestMismatchFails(t *testing.T) {
	b := newTestBench(defaultSeed)
	b.digests = &digestChecker{seed: defaultSeed, pins: map[string]string{"snoop/butterfly": "aaaa"}, seen: map[string]string{}}
	b.checkDigest("snoop/butterfly", "aaaa")
	b.checkDigest("snoop/butterfly", "bbbb")
	if b.attempted != 2 || b.failed != 1 {
		t.Fatalf("pinned key: attempted %d failed %d, want 2 and 1", b.attempted, b.failed)
	}

	// An unpinned seed takes its first output as the reference.
	b = newTestBench(7)
	b.digests = &digestChecker{seed: 7, pins: map[string]string{"grid/torus": "aaaa"}, seen: map[string]string{}}
	b.checkDigest("grid/torus", "cccc")
	b.checkDigest("grid/torus", "cccc")
	b.checkDigest("grid/torus", "dddd")
	if b.attempted != 3 || b.failed != 1 {
		t.Fatalf("unpinned seed: attempted %d failed %d, want 3 and 1", b.attempted, b.failed)
	}
}

func TestPinnedDigestsCoverEveryOutput(t *testing.T) {
	for _, key := range []string{
		"snoop/butterfly", "snoop/torus",
		"snoop-contention/butterfly", "snoop-contention/torus",
		"grid/butterfly", "grid/torus",
	} {
		if len(pinned[key]) != 64 {
			t.Errorf("no sha256 pinned for %s", key)
		}
	}
}

func drawMix(seed uint64, n int) (idx []int, misses int) {
	m := newRequestMix(seed)
	for range n {
		i, miss := m.next()
		idx = append(idx, i)
		if miss {
			misses++
		}
	}
	return idx, misses
}

func TestRequestMixIsPureFunctionOfSeed(t *testing.T) {
	const n = 20_000
	a, misses := drawMix(3, n)
	b, _ := drawMix(3, n)
	if !slices.Equal(a, b) {
		t.Fatal("two mixes from one seed differ")
	}
	if c, _ := drawMix(4, n); slices.Equal(a, c) {
		t.Fatal("mixes from different seeds are identical")
	}
	if share := float64(misses) / n; math.Abs(share-missShare) > missShare/2 {
		t.Errorf("never-seen share %.4f, want about %.2f", share, missShare)
	}
	counts := map[int]int{}
	next := serviceKeys
	for _, i := range a {
		switch {
		case i >= serviceKeys:
			if i != next {
				t.Fatalf("never-seen spec %d out of order, want %d", i, next)
			}
			next++
		case i < 0:
			t.Fatalf("index %d out of range", i)
		default:
			counts[i]++
		}
	}
	// Zipf skew: the hottest key is drawn far more often than the
	// median key.
	var c []int
	for _, v := range counts {
		c = append(c, v)
	}
	slices.Sort(c)
	if hot, mid := c[len(c)-1], c[len(c)/2]; hot < 10*mid {
		t.Errorf("hottest key drawn %d times vs median %d: not skewed", hot, mid)
	}
}

func TestServiceSpecsAreDistinct(t *testing.T) {
	seen := map[string]int{}
	for _, seed := range []uint64{1, 2} {
		for i := range serviceKeys + 50 {
			key := serviceSpec(seed, i).Canonical()
			if j, dup := seen[key]; dup {
				t.Fatalf("seed %d spec %d has the key of spec %d", seed, i, j)
			}
			seen[key] = i
		}
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"tsnoop/internal/tsnet.(*Network).deliver.func1":     "tsnoop/internal/tsnet",
		"tsnoop/internal/protocol/tssnoop.(*Protocol).snoop": "tsnoop/internal/protocol/tssnoop",
		"runtime.mallocgc":       "runtime",
		"net/http.(*conn).serve": "net/http",
		"tsnoop/internal/parallel.Map[go.shape.struct { x tsnoop/a.T }].f1": "tsnoop/internal/parallel",
		"main.main": "main",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// pb appends protobuf fields.
type pb []byte

func (p pb) varint(num int, v uint64) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3)
	return binary.AppendUvarint(p, v)
}

func (p pb) bytes(num int, b []byte) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3|2)
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestPackageSharesAttributesLeafFrames(t *testing.T) {
	names := []string{"", "samples", "count",
		"tsnoop/internal/tsnet.(*Network).deliver", "runtime.mallocgc", "net/http.(*conn).serve"}
	var p pb
	// Samples: 3 in tsnet, 1 in an inlined runtime call (leaf), 4 in
	// net/http; one sample unpacked, the others packed.
	p = p.bytes(profSample, pb{}.bytes(sampleLocation, packed(1)).bytes(sampleValue, packed(3, 30_000_000)))
	p = p.bytes(profSample, pb{}.bytes(sampleLocation, packed(2, 1)).bytes(sampleValue, packed(1, 10_000_000)))
	p = p.bytes(profSample, pb{}.varint(sampleLocation, 3).varint(sampleValue, 4).varint(sampleValue, 40_000_000))
	p = p.bytes(profLocation, pb{}.varint(locationID, 1).bytes(locationLine, pb{}.varint(lineFunction, 1)))
	p = p.bytes(profLocation, pb{}.varint(locationID, 2).
		bytes(locationLine, pb{}.varint(lineFunction, 2)).
		bytes(locationLine, pb{}.varint(lineFunction, 1)))
	p = p.bytes(profLocation, pb{}.varint(locationID, 3).bytes(locationLine, pb{}.varint(lineFunction, 3)))
	for id, name := range []uint64{3, 4, 5} {
		p = p.bytes(profFunction, pb{}.varint(functionID, uint64(id+1)).varint(functionName, name))
	}
	for _, s := range names {
		p = p.bytes(profString, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	shares, err := packageShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"tsnoop/internal/tsnet": 3.0 / 8, "runtime": 1.0 / 8, "net/http": 4.0 / 8}
	if len(shares) != len(want) {
		t.Fatalf("shares %v, want %v", shares, want)
	}
	for pkg, w := range want {
		if math.Abs(shares[pkg]-w) > 1e-12 {
			t.Errorf("share of %s = %g, want %g", pkg, shares[pkg], w)
		}
	}

	b := newTestBench(defaultSeed)
	reportShares(b, shares)
	if b.metrics["tsnet.cpu_share"] != 3.0/8 || b.metrics["nethttp.cpu_share"] != 4.0/8 || b.metrics["sim.cpu_share"] != 0 {
		t.Errorf("layer shares %v", b.metrics)
	}

	if _, err := packageShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestLiveProfileDecodes(t *testing.T) {
	prof, err := startProfile()
	if err != nil {
		t.Skip(err)
	}
	x := 1.0
	for i := range 30_000_000 {
		x = math.Sqrt(x + float64(i))
	}
	shares, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if len(shares) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g (x=%g)", sum, x)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists
// here in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, slices.Sorted(maps.Keys(workloads)); !slices.Equal(slices.Sorted(slices.Values(got)), want) {
		t.Errorf("workloads %v, want %v", got, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestAssignCyclesRanksThroughMembers(t *testing.T) {
	m := newRequestMix(5)
	keys := slices.Clone(m.perm)
	owner := func(k int) int { return k % 7 % serviceNodes } // uneven shares
	m.assign(owner)
	if !slices.Equal(slices.Sorted(slices.Values(m.perm)), slices.Sorted(slices.Values(keys))) {
		t.Fatal("assign lost or duplicated keys")
	}
	for r := range 30 {
		if got := owner(m.perm[r]); got != r%serviceNodes {
			t.Fatalf("rank %d owned by member %d, want %d", r, got, r%serviceNodes)
		}
	}
}
