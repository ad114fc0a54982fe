package main

// The grid workload: the Figure 3/4 grid (5 benchmarks x 3 protocols x
// 2 networks) at reduced scale, streamed network by network through
// harness.Experiment.StreamGrid with one worker per CPU. One request is
// the grid over both networks.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"tsnoop/internal/harness"
	"tsnoop/internal/spec"
	"tsnoop/internal/system"
)

// gridSetups is how many times a run times the grid's set-up.
const gridSetups = 25

// gridExperiment is the workload's grid: quota scale 0.2, warm-up
// scale 0.5, one seed, Workers = nproc.
func gridExperiment(seed uint64, metrics bool) harness.Experiment {
	base := spec.Default()
	base.Seed = seed
	base.Metrics = metrics
	e := harness.Default()
	e.Seeds = 1
	e.QuotaScale = 0.2
	e.WarmupScale = 0.5
	e.Workers = workers()
	e.Base = &base
	return e
}

// gridPlan is a grid request resolved: every cell's spec and its
// simulated memops (warm-up + measured, all CPUs).
type gridPlan struct {
	cells  []harness.Cell
	specs  map[harness.Cell]spec.Spec
	memops int64
}

// planGrid resolves and validates every cell of the grid (the set-up of
// a grid request).
func planGrid(e harness.Experiment) (gridPlan, error) {
	p := gridPlan{specs: map[harness.Cell]spec.Spec{}}
	for _, network := range harness.Networks {
		for _, c := range e.Cells(network) {
			s := e.CellSpec(c)
			cfg, _, err := s.Config()
			if err != nil {
				return gridPlan{}, err
			}
			p.cells = append(p.cells, c)
			p.specs[c] = s
			p.memops += int64(cfg.Nodes) * int64(cfg.WarmupPerCPU+cfg.MeasurePerCPU)
		}
	}
	return p, nil
}

// cellLine renders one cell as a line of the grid NDJSON (tsnoop grid
// -json), without any telemetry block.
func cellLine(cr harness.CellResult) ([]byte, error) {
	r := *cr.Best
	r.Metrics = nil
	cr.Best = &r
	line, err := json.Marshal(cr)
	return append(line, '\n'), err
}

// gridRequest is one streamed grid's outcome.
type gridRequest struct {
	stream    time.Duration // wall time of the streamed grids
	wall, cpu time.Duration // the whole request, in wall and process CPU time
	grids     map[string]*harness.Grid
}

// streamGrid runs one grid request over both networks, checking each
// network's NDJSON against its pin. tally, when non-nil, collects the
// cells' probe counters.
func streamGrid(b *bench, e harness.Experiment, tally *simTally) (gridRequest, error) {
	runtime.GC() // as in snoopLoop: one request's peak, not the previous one's garbage
	t0, c0 := time.Now(), processCPU()
	plan, err := planGrid(e)
	if err != nil {
		return gridRequest{}, err
	}
	req := gridRequest{grids: map[string]*harness.Grid{}}
	ts := time.Now()
	for _, network := range harness.Networks {
		g := harness.NewGrid(network, nil)
		var ndjson bytes.Buffer
		for cr, err := range e.StreamGrid(context.Background(), network) {
			if err != nil {
				return gridRequest{}, err
			}
			line, err := cellLine(cr)
			if err != nil {
				return gridRequest{}, err
			}
			ndjson.Write(line)
			g.Add(cr)
			if tally != nil {
				tally.add(plan.specs[cr.Cell], cr.Best)
			}
		}
		b.checkDigest("grid/"+network, digest(ndjson.Bytes()))
		req.grids[network] = g
	}
	req.stream = time.Since(ts)
	req.wall, req.cpu = time.Since(t0), processCPU()-c0
	return req, nil
}

// paperRanges prints TS-Snoop's speedups and DirOpt's extra traffic
// beside the ranges the paper publishes. Informational only: the
// workloads are synthetic and the model is unvalidated against
// hardware, so no error figure is given.
func paperRanges(b *bench, grids map[string]*harness.Grid) {
	paper := map[string][3]string{
		system.NetButterfly: {"10-28%", "6-28%", "13-43%"},
		system.NetTorus:     {"15-29%", "6-23%", "17-37%"},
	}
	for _, network := range harness.Networks {
		g := grids[network]
		clo, chi := g.SpeedupRange(system.ProtoDirClassic)
		olo, ohi := g.SpeedupRange(system.ProtoDirOpt)
		tlo, thi := g.ExtraTrafficRange(system.ProtoDirOpt)
		p := paper[network]
		fmt.Fprintf(b.log, "informational (%s, reduced scale, synthetic workloads, model unvalidated): "+
			"TS-Snoop faster than DirClassic %.0f-%.0f%% (paper %s), than DirOpt %.0f-%.0f%% (paper %s); "+
			"extra traffic vs DirOpt %.0f-%.0f%% (paper %s)\n",
			network, clo*100, chi*100, p[0], olo*100, ohi*100, p[1], tlo*100, thi*100, p[2])
	}
}

func runGrid(b *bench) error {
	e := gridExperiment(b.seed, false)
	plan, err := planGrid(e)
	if err != nil {
		return err
	}
	// Set-up is the plan alone, so it is timed gridSetups more times on
	// its own after the first, which also counts process start.
	setups := []float64{processCPU().Seconds()}
	for range gridSetups {
		c0 := processCPU()
		if _, err := planGrid(e); err != nil {
			return err
		}
		setups = append(setups, (processCPU() - c0).Seconds())
	}
	untraced, traced := b.phases()
	var lat, streams []float64
	var cpu, wall time.Duration
	var memops int64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < untraced; n++ {
		req, err := streamGrid(b, e, nil)
		if err != nil {
			return err
		}
		if n == 0 {
			paperRanges(b, req.grids)
		}
		streams = append(streams, req.stream.Seconds())
		lat = append(lat, float64(req.wall)/float64(time.Millisecond))
		cpu += req.cpu
		wall += req.wall
		memops += plan.memops
	}
	b.set("setup_s", percentile(setups, 0.5))
	rate := ratio(float64(memops), cpu.Seconds())
	b.set("memops_per_cpu_s", rate)
	b.requests(len(lat), cpu, wall, lat)
	fmt.Fprintf(b.log, "grid: %d grids of %d cells, %d memops, %.3f s wall, %.3f s CPU\n",
		len(lat), len(plan.cells), memops, wall.Seconds(), cpu.Seconds())
	if !b.trace {
		return nil
	}

	gridS := percentile(streams, 0.5)
	b.set("harness.grid_s", gridS)
	if err := timeCells(b, e, plan); err != nil {
		return err
	}
	if err := timeBuilds(b, plan); err != nil {
		return err
	}

	// Traced streamed grids: probe counters, allocations, GC and the CPU
	// profile, for the rest of the measuring time.
	et := gridExperiment(b.seed, true)
	tally := &simTally{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	clk0 := readCPUClock()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	var tcpu time.Duration
	var tgrids int
	deadline := start.Add(untraced + traced)
	for tgrids == 0 || time.Now().Before(deadline) {
		req, err := streamGrid(b, et, tally)
		if err != nil {
			prof.stop()
			return err
		}
		tcpu += req.cpu
		tgrids++
	}
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	b.set("runtime.gc_cpu_frac", readCPUClock().gcFrac(clk0))
	reportShares(b, shares)
	tally.allocs = int64(m1.Mallocs - m0.Mallocs)
	tally.allocBytes = int64(m1.TotalAlloc - m0.TotalAlloc)
	tally.allocMemops = int64(tgrids) * plan.memops
	tally.report(b, tgrids)
	// Per-network dispatch counts are a snoop-workload figure.
	b.set("sim.dispatches_butterfly", 0)
	b.set("sim.dispatches_torus", 0)
	b.set("bench.trace_overhead_frac", ratio(rate, ratio(float64(int64(tgrids)*plan.memops), tcpu.Seconds()))-1)
	return nil
}

// timeCells times every cell's RunCell, nproc cells at a time like the
// streamed grid's worker pool, and checks the reassembled NDJSON
// against the same pins as the streamed grid.
func timeCells(b *bench, e harness.Experiment, plan gridPlan) error {
	serial := e
	serial.Workers = 1
	results := make([]harness.CellResult, len(plan.cells))
	times := make([]time.Duration, len(plan.cells))
	errs := make([]error, len(plan.cells))
	t0 := time.Now()
	forEach(len(plan.cells), func(i int) {
		t := time.Now()
		results[i], errs[i] = serial.RunCell(plan.cells[i])
		times[i] = time.Since(t)
	})
	wall := time.Since(t0)

	lines := map[string]*bytes.Buffer{}
	var cellMS []float64
	var tsS, dirS, busy float64
	for i, c := range plan.cells {
		if errs[i] != nil {
			return errs[i]
		}
		line, err := cellLine(results[i])
		if err != nil {
			return err
		}
		if lines[c.Network] == nil {
			lines[c.Network] = &bytes.Buffer{}
		}
		lines[c.Network].Write(line)
		cellMS = append(cellMS, float64(times[i])/float64(time.Millisecond))
		busy += times[i].Seconds()
		if c.Protocol == system.ProtoTSSnoop {
			tsS += times[i].Seconds()
		} else {
			dirS += times[i].Seconds()
		}
	}
	for _, network := range harness.Networks {
		b.checkDigest("grid/"+network, digest(lines[network].Bytes()))
	}
	b.set("harness.cell_ms_p50", percentile(cellMS, 0.5))
	b.set("harness.cell_ms_max", percentile(cellMS, 1))
	b.set("harness.tssnoop_cell_s", tsS)
	b.set("harness.directory_cell_s", dirS)
	// The share of the pool's worker time spent in cells: the rest is
	// the tail, where the slowest cells run while other workers idle.
	b.set("parallel.busy_frac", ratio(busy, float64(workers())*wall.Seconds()))
	return nil
}

// timeBuilds times system.Build for every cell and the generator's
// Next over one DirClassic/butterfly cell per benchmark.
func timeBuilds(b *bench, plan gridPlan) error {
	var builds []float64
	tally := &simTally{}
	for _, c := range plan.cells {
		p, err := prepare(plan.specs[c], c.Protocol == system.ProtoDirClassic && c.Network == system.NetButterfly)
		if err != nil {
			return err
		}
		builds = append(builds, float64(p.build)/float64(time.Millisecond))
		if p.gen != nil {
			p.sys.Execute()
			tally.next += p.gen.ns
			tally.nextCalls += p.gen.calls
		}
	}
	b.set("system.build_ms", percentile(builds, 0.5))
	tally.reportNext(b)
	return nil
}
