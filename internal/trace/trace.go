// Package trace records, stores, replays, and transforms workload
// reference streams. It is the bridge between the synthetic generators
// and an open-ended scenario engine: any workload.Generator's per-CPU
// stream of Access records can be captured to a compact on-disk format,
// replayed bit-exactly into any protocol (the Replayer is itself a
// workload.Generator), and rewritten by composable transforms (CPU
// folding, footprint scaling, window truncation, multi-trace merge).
//
// The on-disk format is chunked and varint+delta encoded: a magic and
// header (CPU count, workload name, footprint, phase quotas), then a
// sequence of per-CPU chunks, each holding up to ChunkLen accesses as
// zigzag-varint block deltas plus a varint packing the think time with
// the load/store bit. Chunks decode independently (each restarts its
// delta base), so encoding and decoding both fan out across the
// internal/parallel worker pool.
//
// Traces plug into everything above them: workload.ByName resolves
// "trace:<path>" names (registered here), so spec.Spec runs,
// harness.Experiment grids, and the tsnoop CLI accept trace-backed
// workloads unchanged. The "tsnoop trace" subcommand surfaces record /
// replay / stat / transform on the command line.
package trace

import (
	"fmt"
	"os"
	"sync"
	"time"

	"tsnoop/internal/sim"
	"tsnoop/internal/workload"
)

// Header describes a trace: the machine shape it was recorded for and
// the phase quotas a replay should use.
type Header struct {
	// CPUs is the number of per-CPU streams.
	CPUs int
	// Name is the originating workload's name.
	Name string
	// FootprintBytes is the originating workload's configured footprint.
	FootprintBytes int64
	// WarmupPerCPU and MeasurePerCPU are the phase quotas the trace was
	// recorded with; replays default to them (workload.Quotaed).
	WarmupPerCPU  int
	MeasurePerCPU int
}

// Trace is a fully decoded trace: a header plus one access stream per
// CPU. The streams are read-only once built; Replayers share them.
type Trace struct {
	Header  Header
	Streams [][]workload.Access
}

// Accesses returns the total access count across all streams.
func (t *Trace) Accesses() int64 {
	var n int64
	for _, s := range t.Streams {
		n += int64(len(s))
	}
	return n
}

// Capture draws perCPU accesses per processor straight from gen, using
// the same seed-to-stream derivation as a live run (building a system
// seeds a root RNG and Splits one child per node, in node order), and
// returns them as a Trace. Because generator state and RNGs are both
// per-CPU, the captured streams are exactly what a live simulation with
// this seed would consume — independent of protocol, network, and event
// interleaving — so replaying them reproduces the live run bit-exactly.
func Capture(gen workload.Generator, cpus int, seed uint64, warmupPerCPU, measurePerCPU int) *Trace {
	root := sim.NewRand(seed)
	rngs := make([]*sim.Rand, cpus)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	perCPU := warmupPerCPU + measurePerCPU
	streams := make([][]workload.Access, cpus)
	for cpu := range streams {
		s := make([]workload.Access, perCPU)
		for i := range s {
			s[i] = gen.Next(cpu, rngs[cpu])
		}
		streams[cpu] = s
	}
	return &Trace{
		Header: Header{
			CPUs:           cpus,
			Name:           gen.Name(),
			FootprintBytes: gen.FootprintBytes(),
			WarmupPerCPU:   warmupPerCPU,
			MeasurePerCPU:  measurePerCPU,
		},
		Streams: streams,
	}
}

// Recorder wraps a generator and tees every access it produces into a
// Writer, so a live simulation records its own reference stream as a
// side effect. Check the Writer's Close error for write failures.
type Recorder struct {
	inner workload.Generator
	w     *Writer
}

// NewRecorder returns a Recorder teeing inner's stream into w.
func NewRecorder(inner workload.Generator, w *Writer) *Recorder {
	return &Recorder{inner: inner, w: w}
}

// Name implements workload.Generator.
func (r *Recorder) Name() string { return r.inner.Name() }

// FootprintBytes implements workload.Generator.
func (r *Recorder) FootprintBytes() int64 { return r.inner.FootprintBytes() }

// Next implements workload.Generator: it forwards to the wrapped
// generator and appends the access to the trace.
func (r *Recorder) Next(cpu int, rng *sim.Rand) workload.Access {
	a := r.inner.Next(cpu, rng)
	r.w.Append(cpu, a)
	return a
}

// Replayer replays a Trace as a workload.Generator: Next pops the
// stream back in recorded per-CPU order, so a replayed simulation is
// bit-identical to the live run the trace captures. A stream that runs
// dry wraps around to its start (deterministically); Wraps counts how
// often, so callers can detect quota overruns.
type Replayer struct {
	trace *Trace
	pos   []int
	wraps int
}

// NewReplayer returns a Replayer positioned at the start of t.
func NewReplayer(t *Trace) *Replayer {
	return &Replayer{trace: t, pos: make([]int, len(t.Streams))}
}

// Name implements workload.Generator.
func (r *Replayer) Name() string { return r.trace.Header.Name }

// FootprintBytes implements workload.Generator.
func (r *Replayer) FootprintBytes() int64 { return r.trace.Header.FootprintBytes }

// CPUs returns the number of recorded streams.
func (r *Replayer) CPUs() int { return r.trace.Header.CPUs }

// Quotas implements workload.Quotaed: replays default to the phase
// quotas the trace was recorded with.
func (r *Replayer) Quotas() (warmupPerCPU, measurePerCPU int) {
	return r.trace.Header.WarmupPerCPU, r.trace.Header.MeasurePerCPU
}

// Wraps returns how many times any stream has wrapped around.
func (r *Replayer) Wraps() int { return r.wraps }

// Next implements workload.Generator. The RNG is ignored: a trace is
// already a fixed stream, and leaving the per-CPU RNG untouched keeps
// replay independent of it.
func (r *Replayer) Next(cpu int, _ *sim.Rand) workload.Access {
	if cpu >= len(r.trace.Streams) {
		panic(fmt.Sprintf("trace: replay for cpu %d but trace %q has %d streams (fold it: tstrace transform -fold)",
			cpu, r.trace.Header.Name, len(r.trace.Streams)))
	}
	s := r.trace.Streams[cpu]
	if len(s) == 0 {
		panic(fmt.Sprintf("trace: replay for cpu %d but its stream is empty", cpu))
	}
	if r.pos[cpu] >= len(s) {
		r.pos[cpu] = 0
		r.wraps++
	}
	a := s[r.pos[cpu]]
	r.pos[cpu]++
	return a
}

// The compiler keeps the wrap-detection and quota contracts honest.
var (
	_ workload.Wrapping = (*Replayer)(nil)
	_ workload.Quotaed  = (*Replayer)(nil)
)

// resolved caches traces decoded by the "trace:<path>" scheme:
// repeated resolutions of the same file (e.g. a Spec run's per-seed
// lookups, fanned out concurrently) share one decode and its streams,
// which Replayers never mutate. Entries are keyed by (path, mtime,
// size), so rewriting a trace file in place invalidates the stale
// decode; the cache itself lives (unbounded) for the process. The
// mutex is held across the decode so concurrent first lookups don't
// each decode a full copy.
var resolved struct {
	sync.Mutex
	byFile map[resolvedKey]*Trace
}

type resolvedKey struct {
	path string
	mod  time.Time
	size int64
}

// Resolved returns the decoded trace at path through the same cache the
// trace:<path> scheme uses, so a caller that needs the header (e.g.
// tstrace replay) shares one read and decode with the replay itself.
func Resolved(path string) (*Trace, error) { return readResolved(path) }

func readResolved(path string) (*Trace, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	key := resolvedKey{path: path, mod: fi.ModTime(), size: fi.Size()}
	resolved.Lock()
	defer resolved.Unlock()
	if t, ok := resolved.byFile[key]; ok {
		return t, nil
	}
	t, err := ReadFile(path, 0)
	if err != nil {
		return nil, err
	}
	if resolved.byFile == nil {
		resolved.byFile = map[resolvedKey]*Trace{}
	}
	resolved.byFile[key] = t
	return t, nil
}

// init registers the "trace:<path>" workload scheme: the file is read
// and decoded (one decode worker per CPU core, cached per path) and
// must match the requested processor count — fold or split mismatched
// traces with tstrace transform first.
func init() {
	workload.RegisterScheme("trace", func(path string, cpus int) (workload.Generator, error) {
		t, err := readResolved(path)
		if err != nil {
			return nil, err
		}
		if t.Header.CPUs > cpus {
			return nil, fmt.Errorf("trace %s: recorded for %d cpus, want %d (fold it: tstrace transform -in %s -fold %d -o <out>)",
				path, t.Header.CPUs, cpus, path, cpus)
		}
		if t.Header.CPUs < cpus {
			return nil, fmt.Errorf("trace %s: recorded for %d cpus, want %d (run it at its recorded width, e.g. -nodes %d)",
				path, t.Header.CPUs, cpus, t.Header.CPUs)
		}
		return NewReplayer(t), nil
	})
}
