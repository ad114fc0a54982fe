package harness

import (
	"fmt"
	"strings"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/parallel"
	"tsnoop/internal/protocol/directory"
	"tsnoop/internal/protocol/tssnoop"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// Table2Row is one unloaded-latency row: the paper's analytic value and
// the value measured by running the actual protocols.
type Table2Row struct {
	Desc     string
	Analytic sim.Time
	Measured sim.Time
}

// probeEnv drives single misses through a real protocol instance.
type probeEnv struct {
	k     *sim.Kernel
	proto coherence.Protocol
}

func (e *probeEnv) access(node int, op coherence.Op, b coherence.Block) sim.Time {
	var lat sim.Time
	done := false
	e.proto.Access(node, op, b, func(r coherence.AccessResult) { lat = r.Latency; done = true })
	e.k.RunWhile(func() bool { return !done })
	return lat
}

func (e *probeEnv) settle(d sim.Duration) { e.k.RunUntil(e.k.Now() + d) }

func newProbe(topo *topology.Topology, proto string, params timing.Params) *probeEnv {
	k := sim.NewKernel()
	run := &stats.Run{}
	cc := cache.Config{SizeBytes: 512 * 1024, Ways: 4, BlockBytes: 64}
	var p coherence.Protocol
	switch proto {
	case system.ProtoTSSnoop:
		opts := tssnoop.DefaultOptions(params)
		opts.Cache = cc
		p = tssnoop.New(k, topo, params, run, nil, opts)
	case system.ProtoDirOpt:
		opts := directory.DefaultOptions(directory.Opt)
		opts.Cache = cc
		p = directory.New(k, topo, params, run, nil, opts)
	default:
		panic("probe: unsupported protocol " + proto)
	}
	env := &probeEnv{k: k, proto: p}
	env.settle(300 * sim.Nanosecond) // let logical time reach steady state
	return env
}

// blockFor picks the i-th fresh block homed at the given node.
func blockFor(home, i, nodes int) coherence.Block {
	return coherence.Block(home + i*nodes)
}

// meanOverPairs averages a probe latency over every (requester, partner)
// pair with requester != partner.
func meanOverPairs(nodes int, f func(req, partner, trial int) sim.Time) sim.Time {
	var sum sim.Time
	count := 0
	trial := 0
	for req := 0; req < nodes; req++ {
		for partner := 0; partner < nodes; partner++ {
			if req == partner {
				continue
			}
			sum += f(req, partner, trial)
			trial++
			count++
		}
	}
	return sim.Time(int64(sum) / int64(count))
}

// Table2 regenerates the unloaded-latency table for one network by both
// computing the paper's formulas and measuring the protocols, probing
// with one worker per CPU.
func Table2(network string) ([]Table2Row, error) { return Table2Workers(network, 0) }

// Table2Workers is Table2 with an explicit probe-worker bound (0 = one
// per CPU, 1 = serial). Every worker count measures identical rows.
func Table2Workers(network string, workers int) ([]Table2Row, error) {
	params := timing.Default()
	var topo *topology.Topology
	var err error
	var meanHops int
	switch network {
	case system.NetButterfly:
		topo, err = topology.Butterfly(4)
		meanHops = 3
	case system.NetTorus:
		topo, err = topology.Torus(4, 4)
		meanHops = 2 // the paper's stated mean of 2 links
	default:
		return nil, fmt.Errorf("harness: unknown network %q", network)
	}
	if err != nil {
		return nil, err
	}
	nodes := topo.Nodes()
	dnet := params.Dnet(meanHops)

	// The three measurements drive independent probe kernels, so they run
	// concurrently; each closure owns its probe environment.
	probes := []func() sim.Time{
		// Memory latency measured on the directory protocol (its request
		// and response paths are exact).
		func() sim.Time {
			dir := newProbe(topo, system.ProtoDirOpt, params)
			return meanOverPairs(nodes, func(req, home, trial int) sim.Time {
				return dir.access(req, coherence.Load, blockFor(home, trial, nodes))
			})
		},
		// Directory 3-hop: owner takes M first, then the requester loads.
		func() sim.Time {
			dir3 := newProbe(topo, system.ProtoDirOpt, params)
			return meanOverPairs(nodes, func(req, owner, trial int) sim.Time {
				home := (owner + 5) % nodes // a third party (wraps over all homes)
				if home == req {
					home = (home + 1) % nodes
				}
				b := blockFor(home, 1000+trial, nodes)
				dir3.access(owner, coherence.Store, b)
				dir3.settle(sim.Microsecond)
				return dir3.access(req, coherence.Load, b)
			})
		},
		// Timestamp snooping cache-to-cache.
		func() sim.Time {
			ts := newProbe(topo, system.ProtoTSSnoop, params)
			return meanOverPairs(nodes, func(req, owner, trial int) sim.Time {
				home := (owner + 5) % nodes
				if home == req {
					home = (home + 1) % nodes
				}
				b := blockFor(home, 2000+trial, nodes)
				ts.access(owner, coherence.Store, b)
				ts.settle(sim.Microsecond)
				return ts.access(req, coherence.Load, b)
			})
		},
	}
	measured, err := parallel.Map(workers, len(probes), func(i int) (sim.Time, error) {
		return probes[i](), nil
	})
	if err != nil {
		return nil, err
	}
	memMeasured, threeHopMeasured, tsC2CMeasured := measured[0], measured[1], measured[2]

	rows := []Table2Row{
		{Desc: "One-way latency (Dnet)", Analytic: dnet, Measured: dnet},
		{Desc: "Block from memory (Dnet+Dmem+Dnet)", Analytic: dnet + params.Dmem + dnet, Measured: memMeasured},
		{Desc: "Block from cache, timestamp snooping (Dnet+Dcache+Dnet)", Analytic: dnet + params.Dcache + dnet, Measured: tsC2CMeasured},
		{Desc: "Block from cache, directory 3 hops (Dnet+Dmem+Dnet+Dcache+Dnet)", Analytic: 3*dnet + params.Dmem + params.Dcache, Measured: threeHopMeasured},
	}
	return rows, nil
}

// RenderTable2 renders both networks' Table 2 rows, probing with one
// worker per CPU.
func RenderTable2() (string, error) { return RenderTable2Networks(0, Networks...) }

// RenderTable2Networks renders Table 2 for a chosen subset of networks
// with an explicit worker bound (0 = one per CPU, 1 = serial). The
// networks render sequentially so the bound caps total concurrent
// probes rather than multiplying.
func RenderTable2Networks(workers int, networks ...string) (string, error) {
	var b strings.Builder
	for _, net := range networks {
		rows, err := Table2Workers(net, workers)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Table 2 (%s): unloaded latencies (analytic vs measured)\n", net)
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-60s %10s %10s\n", r.Desc, r.Analytic, r.Measured)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Table3Row characterizes one benchmark (Table 3).
type Table3Row struct {
	Benchmark   string
	FootprintMB float64 // configured (the paper's full-scale footprint)
	TouchedMB   float64 // measured in the scaled run
	TotalMisses int64
	ThreeHopPct float64
}

// Table3 measures the benchmark characteristics on the butterfly with
// DirOpt (the paper reports protocol-averaged values; variation across
// protocols is negligible because the reference streams are identical).
// The benchmarks run concurrently on the worker pool.
func (e Experiment) Table3() ([]Table3Row, error) {
	names := e.benchmarks()
	return parallel.Map(e.workers(), len(names), func(i int) (Table3Row, error) {
		s := e.CellSpec(Cell{Benchmark: names[i], Protocol: system.ProtoDirOpt, Network: system.NetButterfly})
		s.Seeds, s.PerturbNS = 1, 0 // one unperturbed run per benchmark
		run, err := s.Run()
		if err != nil {
			return Table3Row{}, err
		}
		gen, err := s.Generator()
		if err != nil {
			return Table3Row{}, err
		}
		return Table3Row{
			Benchmark:   names[i],
			FootprintMB: float64(gen.FootprintBytes()) / (1 << 20),
			TouchedMB:   float64(run.DataTouched) / (1 << 20),
			TotalMisses: run.TotalMisses(),
			ThreeHopPct: 100 * run.CacheToCacheFraction(),
		}, nil
	})
}

// RenderTable3 renders Table 3.
func (e Experiment) RenderTable3() (string, error) {
	rows, err := e.Table3()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 3: benchmark characteristics (scaled runs)\n")
	fmt.Fprintf(&b, "%-10s %14s %12s %12s %10s\n",
		"benchmark", "footprint(MB)", "touched(MB)", "misses", "3-hop(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14.1f %12.2f %12d %9.0f%%\n",
			r.Benchmark, r.FootprintMB, r.TouchedMB, r.TotalMisses, r.ThreeHopPct)
	}
	return b.String(), nil
}
