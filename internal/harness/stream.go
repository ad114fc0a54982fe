package harness

// Streaming experiment execution. Grids and sweeps run as Go iterators
// over the worker pool: results arrive in presentation order the moment
// they are ready, so callers render live progress and cancel early via
// context, while collecting the full sequence remains byte-identical to
// the serial path. RunGrid and the sweep renderers are thin collectors
// over these streams.

import (
	"context"
	"encoding/json"
	"iter"

	"tsnoop/internal/parallel"
	"tsnoop/internal/stats"
)

// StreamGrid executes every benchmark x protocol cell for one network
// and yields each CellResult in presentation order as soon as its
// perturbed seeds finish. Job i is one seed of cell i/seeds: the cell's
// CellSpec narrowed to seed Seed+i%seeds and run by Spec.Run. The full
// benchmark x protocol x seed job list fans out across the worker pool,
// so no worker idles waiting for a slow cell's seeds; collecting the
// stream is byte-identical at any worker count. Every cell's spec is
// resolved before the first simulation, so a bad cell fails the grid
// before any work starts. Cancelling ctx stops new simulations and
// yields the context error.
func (e Experiment) StreamGrid(ctx context.Context, network string) iter.Seq2[CellResult, error] {
	return func(yield func(CellResult, error) bool) {
		cells := e.Cells(network)
		for _, c := range cells {
			if _, _, err := e.CellSpec(c).Config(); err != nil {
				yield(CellResult{}, err)
				return
			}
		}
		seeds := e.seeds()
		runs := make([]*stats.Run, 0, seeds)
		cell := 0
		for run, err := range parallel.Stream(ctx, e.workers(), len(cells)*seeds, func(i int) (*stats.Run, error) {
			s := e.CellSpec(cells[i/seeds])
			s.Seed += uint64(i % seeds)
			s.Seeds, s.Workers = 1, 1
			return s.Run()
		}) {
			if err != nil {
				yield(CellResult{}, err)
				return
			}
			runs = append(runs, run)
			if len(runs) == seeds {
				if !yield(CellResult{Cell: cells[cell], Best: stats.Best(runs)}, nil) {
					return
				}
				cell++
				runs = runs[:0]
			}
		}
	}
}

// NewGrid returns an empty grid for a network, ready to Add streamed
// cell results. benchmarks fixes the presentation order (nil = the
// paper's five).
func NewGrid(network string, benchmarks []string) *Grid {
	return &Grid{Network: network, Benchmarks: benchmarks, Cells: map[string]map[string]CellResult{}}
}

// Add records one streamed cell result in the grid.
func (g *Grid) Add(cr CellResult) {
	if g.Cells[cr.Cell.Benchmark] == nil {
		g.Cells[cr.Cell.Benchmark] = map[string]CellResult{}
	}
	g.Cells[cr.Cell.Benchmark][cr.Cell.Protocol] = cr
}

// MarshalJSON renders a cell result as a flat object with stable field
// names — one line of tsnoop's streaming -json output.
func (cr CellResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Benchmark string     `json:"benchmark"`
		Protocol  string     `json:"protocol"`
		Network   string     `json:"network"`
		Run       *stats.Run `json:"run"`
	}{cr.Cell.Benchmark, cr.Cell.Protocol, cr.Cell.Network, cr.Best})
}
