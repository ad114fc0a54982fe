package harness

// This file derives the specs an experiment runs. Every grid cell,
// perturbed seed, sweep point, and Table 3 row is a spec.Spec executed
// by Spec.Run, so the quota and knob resolution rules, and every
// run-level check (such as a replayed trace wrapping its stream), are
// the same for the grid, the sweeps, the tables, and tsnoop run.

import (
	"tsnoop/internal/parallel"
	"tsnoop/internal/sim"
	"tsnoop/internal/spec"
)

// workers resolves the experiment's Workers knob (0 = one per CPU).
func (e Experiment) workers() int { return parallel.Workers(e.Workers) }

// seeds normalizes the Seeds knob: anything below 1 means a single
// unperturbed run, so a zero-valued Experiment still renders figures.
func (e Experiment) seeds() int {
	if e.Seeds < 1 {
		return 1
	}
	return e.Seeds
}

// CellSpec derives the one self-contained spec whose Run reproduces a
// cell's reported result: the experiment's Base knobs with the cell
// coordinates, the machine-scale fields, and the experiment's seed
// fan-out and perturbation applied, so CellSpec(c).Run() equals the
// cell's streamed Best. It is also the spec every sweep point starts
// from, and the identity the service layer content-addresses grid
// cells by.
func (e Experiment) CellSpec(c Cell) spec.Spec {
	s := spec.Default()
	if e.Base != nil {
		s = *e.Base
	}
	s.Benchmark, s.Protocol, s.Network = c.Benchmark, c.Protocol, c.Network
	s.Nodes = e.Nodes
	s.QuotaScale, s.WarmupScale = e.QuotaScale, e.WarmupScale
	s.Seeds = e.seeds()
	s.PerturbNS = 0
	if e.Seeds > 1 {
		s.PerturbNS = int64(e.PerturbMax / sim.Nanosecond)
	}
	return s
}

// Cells enumerates the benchmark x protocol cells of one network's grid
// in presentation order — the order StreamGrid yields results in.
func (e Experiment) Cells(network string) []Cell {
	var cells []Cell
	for _, b := range e.benchmarks() {
		for _, p := range e.protocols() {
			cells = append(cells, Cell{Benchmark: b, Protocol: p, Network: network})
		}
	}
	return cells
}
