// Package harness runs the paper's experiments: the benchmark x protocol
// x network grid behind Figures 3 and 4, the latency validations behind
// Table 2, the benchmark characterizations of Table 3, the Section 5
// bandwidth envelope, and the sensitivity sweeps. Each regeneration
// returns a structured result with a text rendering used by the cmd
// tools, README.md, and the benchmark suite. Every simulation is a
// spec.Spec (see pool.go) executed by Spec.Run, fanned out across a
// worker pool: set Experiment.Workers to bound the fan-out; output is
// byte-identical at any worker count.
package harness

import (
	"context"
	"fmt"
	"strings"

	"tsnoop/internal/sim"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
	"tsnoop/internal/workload"
)

// Protocols in the paper's presentation order.
var Protocols = spec.Protocols

// Networks in the paper's presentation order.
var Networks = spec.Networks

// Experiment parameterizes a grid run.
type Experiment struct {
	// Nodes is the machine size (16 in the paper).
	Nodes int
	// Seeds is the number of perturbed runs per cell; the minimum runtime
	// is reported ("we report the minimum run time from a set of runs
	// whose only difference is the perturbation").
	Seeds int
	// PerturbMax bounds the injected response delays.
	PerturbMax sim.Duration
	// QuotaScale scales the per-benchmark measured quotas (1.0 = default;
	// tests use smaller values for speed).
	QuotaScale float64
	// WarmupScale scales the warm-up quota similarly.
	WarmupScale float64
	// Workers caps how many simulations the engine runs concurrently.
	// Each cell, seed, and sweep point builds its own kernel, RNG, and
	// system, and results are collected in job order, so any worker count
	// produces byte-identical figures and tables. 0 (the default) uses
	// one worker per CPU; 1 forces the serial path.
	Workers int
	// Benchmarks selects the workloads grids and tables run over; nil
	// (the default) means the paper's five benchmarks. Entries may be
	// any workload.ByName name, including trace:<path> for recorded
	// traces, so whole grids can run from trace directories.
	Benchmarks []string
	// Protocols selects the protocols grids run over; nil (the default)
	// means all three. Figure3/Figure4 need the full set (TS-Snoop is
	// the normalization baseline), so restricted grids suit streaming
	// and JSON consumers rather than the figure renderers.
	Protocols []string
	// Base, when non-nil, supplies the machine and protocol design knobs
	// every cell starts from (slack, MOSI, multicast, cache geometry,
	// explicit quotas ...); nil means spec.Default(). CellSpec owns the
	// per-cell coordinates, seeds, and perturbation.
	Base *spec.Spec
}

// benchmarks resolves the Benchmarks knob.
func (e Experiment) benchmarks() []string {
	if len(e.Benchmarks) > 0 {
		return e.Benchmarks
	}
	return workload.Names()
}

// BenchmarkNames lists the workloads the experiment's grids and tables
// run over, in presentation order.
func (e Experiment) BenchmarkNames() []string {
	return append([]string(nil), e.benchmarks()...)
}

// protocols resolves the Protocols knob.
func (e Experiment) protocols() []string {
	if len(e.Protocols) > 0 {
		return e.Protocols
	}
	return Protocols
}

// ProtocolNames lists the protocols the experiment's grids run over,
// in presentation order.
func (e Experiment) ProtocolNames() []string {
	return append([]string(nil), e.protocols()...)
}

// FromSpec derives the Experiment a spec describes: the spec's machine
// size, seed fan-out, perturbation, quota scaling, and worker bound
// drive the engine, its benchmark (when set) restricts the grid, and
// the spec itself becomes the Base every cell's design knobs start
// from. An empty Benchmark means the paper's five.
func FromSpec(s spec.Spec) Experiment {
	e := Experiment{
		Nodes:       s.Nodes,
		Seeds:       s.Seeds,
		PerturbMax:  sim.Duration(s.PerturbNS) * sim.Nanosecond,
		QuotaScale:  s.QuotaScale,
		WarmupScale: s.WarmupScale,
		Workers:     s.Workers,
		Base:        &s,
	}
	if s.Benchmark != "" {
		e.Benchmarks = []string{s.Benchmark}
	}
	return e
}

// Default returns the experiment setup used to regenerate the paper's
// figures.
func Default() Experiment {
	return Experiment{
		Nodes:       16,
		Seeds:       3,
		PerturbMax:  3 * sim.Nanosecond,
		QuotaScale:  1.0,
		WarmupScale: 1.0,
	}
}

// Cell identifies one grid cell.
type Cell struct {
	Benchmark string
	Protocol  string
	Network   string
}

// CellResult is the best (minimum-runtime) run for a cell.
type CellResult struct {
	Cell Cell
	Best *stats.Run
}

// RunCell executes one cell: its CellSpec, whose perturbed seeds fan
// out across the worker pool, run by Spec.Run, which reports the
// minimum-runtime run.
func (e Experiment) RunCell(c Cell) (CellResult, error) {
	s := e.CellSpec(c)
	s.Workers = e.workers()
	run, err := s.Run()
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Cell: c, Best: run}, nil
}

// Grid holds one network's full benchmark x protocol results.
type Grid struct {
	Network string
	// Benchmarks lists the workloads in presentation order (the paper's
	// five, or the Experiment.Benchmarks override that produced the
	// grid).
	Benchmarks []string
	// Cells[benchmark][protocol].
	Cells map[string]map[string]CellResult
}

// benchmarks tolerates hand-built Grids without the Benchmarks field.
func (g *Grid) benchmarks() []string {
	if len(g.Benchmarks) > 0 {
		return g.Benchmarks
	}
	return workload.Names()
}

// RunGrid executes every benchmark x protocol cell for one network by
// collecting StreamGrid. The full benchmark x protocol x seed job list
// runs on the worker pool, so no worker idles waiting for a slow cell
// to finish its seeds.
func (e Experiment) RunGrid(network string) (*Grid, error) {
	g := NewGrid(network, e.benchmarks())
	for cr, err := range e.StreamGrid(context.Background(), network) {
		if err != nil {
			return nil, err
		}
		g.Add(cr)
	}
	return g, nil
}

// Figure3 renders the normalized-runtime figure for a grid: runtimes
// normalized to TS-Snoop (smaller is better), plus the paper's "X% faster"
// metric Time_dir/Time_TS - 1.
func (g *Grid) Figure3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (%s): runtime normalized to TS-Snoop (smaller is better)\n", g.Network)
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %18s %15s\n",
		"benchmark", "TS-Snoop", "DirClassic", "DirOpt", "faster-vs-Classic", "faster-vs-Opt")
	for _, bench := range g.benchmarks() {
		ts := g.Cells[bench][system.ProtoTSSnoop].Best.Runtime
		dc := g.Cells[bench][system.ProtoDirClassic].Best.Runtime
		do := g.Cells[bench][system.ProtoDirOpt].Best.Runtime
		fmt.Fprintf(&b, "%-10s %10.3f %12.3f %12.3f %17.1f%% %14.1f%%\n",
			bench, 1.0,
			float64(dc)/float64(ts),
			float64(do)/float64(ts),
			100*(float64(dc)/float64(ts)-1),
			100*(float64(do)/float64(ts)-1))
	}
	return b.String()
}

// Figure4 renders the normalized link-traffic figure with the Data /
// Request / Nack / Misc breakdown, normalized to TS-Snoop's total.
func (g *Grid) Figure4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 (%s): link traffic normalized to TS-Snoop, by class\n", g.Network)
	fmt.Fprintf(&b, "%-10s %-11s %8s %8s %8s %8s %8s\n",
		"benchmark", "protocol", "total", "data", "request", "nack", "misc")
	for _, bench := range g.benchmarks() {
		base := g.Cells[bench][system.ProtoTSSnoop].Best.Traffic.TotalLinkBytes()
		for _, proto := range Protocols {
			tr := &g.Cells[bench][proto].Best.Traffic
			norm := func(v int64) float64 { return float64(v) / float64(base) }
			fmt.Fprintf(&b, "%-10s %-11s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
				bench, proto,
				norm(tr.TotalLinkBytes()),
				norm(tr.LinkBytes(stats.ClassData)),
				norm(tr.LinkBytes(stats.ClassRequest)),
				norm(tr.LinkBytes(stats.ClassNack)),
				norm(tr.LinkBytes(stats.ClassMisc)))
		}
	}
	return b.String()
}

// SpeedupRange returns the min and max of Time_other/Time_TS - 1 across
// benchmarks for the given directory protocol (the paper's "TS-Snoop runs
// 6-28% faster than ..." summaries).
func (g *Grid) SpeedupRange(proto string) (lo, hi float64) {
	first := true
	for _, bench := range g.benchmarks() {
		ts := g.Cells[bench][system.ProtoTSSnoop].Best.Runtime
		other := g.Cells[bench][proto].Best.Runtime
		v := float64(other)/float64(ts) - 1
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	return lo, hi
}

// ExtraTrafficRange returns min/max of TS traffic over directory traffic
// minus 1 (the paper's "13-43% more link traffic").
func (g *Grid) ExtraTrafficRange(proto string) (lo, hi float64) {
	first := true
	for _, bench := range g.benchmarks() {
		ts := g.Cells[bench][system.ProtoTSSnoop].Best.Traffic.TotalLinkBytes()
		other := g.Cells[bench][proto].Best.Traffic.TotalLinkBytes()
		v := float64(ts)/float64(other) - 1
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	return lo, hi
}
