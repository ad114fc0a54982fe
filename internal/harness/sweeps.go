package harness

import (
	"context"
	"fmt"
	"iter"
	"strings"

	"tsnoop/internal/parallel"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
)

// SweepPoint is one (configuration, protocol) measurement in a sweep.
type SweepPoint struct {
	Label      string  `json:"label"`
	Protocol   string  `json:"protocol"`
	RuntimePS  int64   `json:"runtime_ps"`
	LinkBytes  int64   `json:"link_bytes"`
	ThreeHopPc float64 `json:"three_hop_pct"`
}

// PointSpec is one sweep measurement: a labelled, fully declarative
// experiment spec (sweeps override fields such as Nodes or BlockBytes
// per point — no mutation hooks).
type PointSpec struct {
	Label string
	Spec  spec.Spec
}

// Result renders a measured run as this point's sweep measurement. It
// is the pure projection runPoint applies, exported so callers that run
// the point spec themselves (the service's cached sweep path) produce
// identical points.
func (p PointSpec) Result(run *stats.Run) SweepPoint {
	return SweepPoint{
		Label:      p.Label,
		Protocol:   p.Spec.Protocol,
		RuntimePS:  int64(run.Runtime),
		LinkBytes:  run.Traffic.TotalLinkBytes(),
		ThreeHopPc: 100 * run.CacheToCacheFraction(),
	}
}

// runPoint executes one measurement: the point spec's seed fan-out
// (Seeds perturbed copies, minimum runtime reported) runs serially
// inside this job — the point pool owns the parallelism.
func runPoint(p PointSpec) (SweepPoint, error) {
	s := p.Spec
	s.Workers = 1
	run, err := s.Run()
	if err != nil {
		return SweepPoint{}, fmt.Errorf("harness: %w", err)
	}
	return p.Result(run), nil
}

// StreamPoints evaluates the specs across the worker pool, yielding
// results in spec order as they complete; collecting the stream is
// byte-identical at any worker count. Cancelling ctx stops new
// measurements.
func (e Experiment) StreamPoints(ctx context.Context, specs []PointSpec) iter.Seq2[SweepPoint, error] {
	return parallel.Stream(ctx, e.workers(), len(specs), func(i int) (SweepPoint, error) {
		return runPoint(specs[i])
	})
}

// runPoints collects StreamPoints.
func (e Experiment) runPoints(specs []PointSpec) ([]SweepPoint, error) {
	pts := make([]SweepPoint, 0, len(specs))
	for pt, err := range e.StreamPoints(context.Background(), specs) {
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// Sweep is one named sensitivity sweep: the labelled points to measure,
// and a renderer that is a pure view over the measured points (so a
// caller may stream the points itself — for progress reporting or JSON
// output — and render afterwards).
type Sweep struct {
	Kind   string
	Points []PointSpec
	render func([]SweepPoint) (string, error)
}

// Render renders measured points (in Points order) as the sweep's text
// report.
func (s *Sweep) Render(pts []SweepPoint) (string, error) {
	if len(pts) != len(s.Points) {
		return "", fmt.Errorf("harness: %s sweep rendered with %d of %d points", s.Kind, len(pts), len(s.Points))
	}
	return s.render(pts)
}

// SweepKinds lists the measured sweep kinds NewSweep accepts (the
// Section 5 analytic envelope is RenderEnvelope, no simulation).
func SweepKinds() []string { return []string{"nodes", "blocksize", "ablation"} }

// NewSweep builds the named sweep over a benchmark (and, for the
// ablation sweep, a network).
func (e Experiment) NewSweep(kind, bench, network string) (*Sweep, error) {
	switch kind {
	case "nodes":
		return e.nodesSweep(bench), nil
	case "blocksize":
		return e.blockSizeSweep(bench), nil
	case "ablation":
		return e.ablationSweep(bench, network), nil
	default:
		return nil, fmt.Errorf("harness: unknown sweep %q (have %s)", kind, strings.Join(SweepKinds(), ", "))
	}
}

// RunSweep measures and renders a sweep.
func (e Experiment) RunSweep(s *Sweep) (string, error) {
	pts, err := e.runPoints(s.Points)
	if err != nil {
		return "", err
	}
	return s.Render(pts)
}

// nodesSweep measures how machine size shifts the snooping/directory
// bandwidth trade-off (Section 5: "at larger numbers of processors,
// directory protocols ... become increasingly attractive"): the TS/DirOpt
// traffic ratio per machine size on the butterfly.
func (e Experiment) nodesSweep(bench string) *Sweep {
	sizes := []int{4, 16, 64}
	var points []PointSpec
	for _, nodes := range sizes {
		label := fmt.Sprintf("n%d", nodes)
		ts := e.CellSpec(Cell{Benchmark: bench, Protocol: system.ProtoTSSnoop, Network: system.NetButterfly})
		ts.Nodes = nodes
		dir := ts
		dir.Protocol = system.ProtoDirOpt
		points = append(points, PointSpec{Label: label, Spec: ts}, PointSpec{Label: label, Spec: dir})
	}
	render := func(pts []SweepPoint) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "Machine-size sweep (%s, butterfly): TS-Snoop vs DirOpt\n", bench)
		fmt.Fprintf(&b, "%6s %16s %16s %14s\n", "nodes", "runtime-ratio", "traffic-ratio", "TS 3-hop(%)")
		for i, nodes := range sizes {
			ts, dir := pts[2*i], pts[2*i+1]
			fmt.Fprintf(&b, "%6d %16.3f %16.3f %13.0f%%\n",
				nodes, float64(dir.RuntimePS)/float64(ts.RuntimePS),
				float64(ts.LinkBytes)/float64(dir.LinkBytes), ts.ThreeHopPc)
		}
		return b.String(), nil
	}
	return &Sweep{Kind: "nodes", Points: points, render: render}
}

// NodesSweep measures and renders the machine-size sweep.
func (e Experiment) NodesSweep(bench string) (string, error) {
	return e.RunSweep(e.nodesSweep(bench))
}

// blockSizeSweep measures the effect of doubling the block size (Section
// 5: the extra-bandwidth bound drops from 60% to 33% on the butterfly).
func (e Experiment) blockSizeSweep(bench string) *Sweep {
	blocks := []int{64, 128}
	var points []PointSpec
	for _, block := range blocks {
		label := fmt.Sprintf("b%d", block)
		ts := e.CellSpec(Cell{Benchmark: bench, Protocol: system.ProtoTSSnoop, Network: system.NetButterfly})
		ts.BlockBytes = block
		ts.CacheBytes = 4 << 20
		dir := ts
		dir.Protocol = system.ProtoDirOpt
		points = append(points, PointSpec{Label: label, Spec: ts}, PointSpec{Label: label, Spec: dir})
	}
	nodes := e.Nodes
	render := func(pts []SweepPoint) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "Block-size sweep (%s, butterfly): TS-Snoop traffic vs DirOpt\n", bench)
		fmt.Fprintf(&b, "%7s %16s %18s\n", "block", "traffic-ratio", "analytic bound")
		for i, block := range blocks {
			ts, dir := pts[2*i], pts[2*i+1]
			env, err := Envelope(system.NetButterfly, nodes, block)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%7d %16.3f %17.0f%%\n",
				block, float64(ts.LinkBytes)/float64(dir.LinkBytes), env.ExtraBoundPc)
		}
		return b.String(), nil
	}
	return &Sweep{Kind: "blocksize", Points: points, render: render}
}

// BlockSizeSweep measures and renders the block-size sweep.
func (e Experiment) BlockSizeSweep(bench string) (string, error) {
	return e.RunSweep(e.blockSizeSweep(bench))
}

// ablationSweep compares the timestamp-snooping design knobs: initial
// slack, prefetch (optimization 1), early processing (optimization 2),
// tokens per port, and the Section 3/7 extensions. Each variant is the
// baseline spec with declarative options applied.
func (e Experiment) ablationSweep(bench, network string) *Sweep {
	knobs := []struct {
		label string
		opts  []spec.Option
	}{
		{"baseline (S=1, prefetch on, opt2 off)", nil},
		{"slack S=0", []spec.Option{spec.WithSlack(0)}},
		{"slack S=4", []spec.Option{spec.WithSlack(4)}},
		{"no prefetch (opt 1 off)", []spec.Option{spec.WithoutPrefetch()}},
		{"early processing (opt 2 on)", []spec.Option{spec.WithEarlyProcessing()}},
		{"tokens per port = 2", []spec.Option{spec.WithTokensPerPort(2)}},
		{"MOSI (Owned state)", []spec.Option{spec.WithMOSI()}},
		{"multicast snooping", []spec.Option{spec.WithMulticast()}},
		{"multicast, 32-entry predictor", []spec.Option{spec.WithMulticast(), spec.WithPredictorSize(32)}},
		{"multicast + MOSI", []spec.Option{spec.WithMulticast(), spec.WithMOSI()}},
		{"contention modelled", []spec.Option{spec.WithContention()}},
	}
	points := make([]PointSpec, len(knobs))
	for i, k := range knobs {
		s := e.CellSpec(Cell{Benchmark: bench, Protocol: system.ProtoTSSnoop, Network: network})
		for _, opt := range k.opts {
			opt(&s)
		}
		points[i] = PointSpec{Label: k.label, Spec: s}
	}
	render := func(pts []SweepPoint) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "TS-Snoop ablations (%s, %s)\n", bench, network)
		fmt.Fprintf(&b, "%-38s %14s %16s\n", "variant", "runtime", "link bytes")
		for _, pt := range pts {
			fmt.Fprintf(&b, "%-38s %14d %16d\n", pt.Label, pt.RuntimePS, pt.LinkBytes)
		}
		return b.String(), nil
	}
	return &Sweep{Kind: "ablation", Points: points, render: render}
}

// AblationReport measures and renders the design-knob ablations.
func (e Experiment) AblationReport(bench, network string) (string, error) {
	return e.RunSweep(e.ablationSweep(bench, network))
}
