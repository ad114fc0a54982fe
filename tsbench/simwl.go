package main

// The snoop and snoop-contention workloads: OLTP on TS-Snoop at 16
// nodes, butterfly then torus, run serially through the public
// simulation entry points (spec.Spec.Config, system.Build,
// System.Execute). One request is one pass over both networks.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"tsnoop/internal/sim"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
	"tsnoop/internal/workload"
)

// roadmapDispatches are the measured-window kernel dispatch counts of
// the default-seed OLTP/TS-Snoop runs (80,000 measured memops each);
// the traced snoop run must reproduce them exactly, which shows the
// per-layer counters are read from the right probe fields.
var roadmapDispatches = map[string]int64{
	system.NetButterfly: 1_943_022,
	system.NetTorus:     3_046_318,
}

// snoopSpecs are the workload's two simulations: the paper's setting
// (contention off, slack 1, prefetch on, default quotas), serial.
func snoopSpecs(seed uint64, contention bool) []spec.Spec {
	var specs []spec.Spec
	for _, network := range []string{system.NetButterfly, system.NetTorus} {
		s := spec.New("OLTP", spec.WithNetwork(network), spec.WithSeed(seed), spec.WithWorkers(1))
		if contention {
			s.Contention = true
		}
		specs = append(specs, s)
	}
	return specs
}

// timedGen wraps a workload generator and accumulates the host time of
// its Next calls (the traced runs' workload.next_ns).
type timedGen struct {
	workload.Generator
	calls int64
	ns    time.Duration
}

func (g *timedGen) Next(cpu int, r *sim.Rand) workload.Access {
	t := time.Now()
	a := g.Generator.Next(cpu, r)
	g.ns += time.Since(t)
	g.calls++
	return a
}

// nopGen is a generator whose Next does nothing.
type nopGen struct{ workload.Generator }

func (nopGen) Next(int, *sim.Rand) workload.Access { return workload.Access{} }

// timerCost is what timing one Next call adds to it, measured by
// timing a generator that does nothing; workload.next_ns subtracts it.
func timerCost() time.Duration {
	g := &timedGen{Generator: nopGen{}}
	for range 100_000 {
		g.Next(0, nil)
	}
	return g.ns / time.Duration(g.calls)
}

// prepared is one built simulation awaiting Execute.
type prepared struct {
	spec   spec.Spec
	sys    *system.System
	gen    *timedGen // nil when untraced
	memops int64     // warm-up + measured, all CPUs
	build  time.Duration
}

// prepare resolves and builds a simulation.
func prepare(s spec.Spec, traced bool) (prepared, error) {
	cfg, gen, err := s.Config()
	if err != nil {
		return prepared{}, err
	}
	p := prepared{spec: s, memops: int64(cfg.Nodes) * int64(cfg.WarmupPerCPU+cfg.MeasurePerCPU)}
	if traced {
		p.gen = &timedGen{Generator: gen}
		gen = p.gen
	}
	tb := time.Now()
	p.sys, err = system.Build(cfg, gen)
	p.build = time.Since(tb)
	if err != nil {
		return prepared{}, err
	}
	return p, nil
}

// runJSON renders a run's stats.Run JSON without its telemetry block,
// so traced and untraced runs of one spec render the same bytes.
func runJSON(r *stats.Run) ([]byte, error) {
	c := *r
	c.Metrics = nil
	return json.Marshal(&c)
}

// simTally accumulates the probe counters of traced simulations.
type simTally struct {
	memops, dispatches                  int64 // measured window
	tokens, hops, handoffs, portService int64
	dataMsgs, tokenStalls, heapPeak     int64
	misses, c2c, dirMisses, dirRetries  int64
	byNetwork                           map[string]int64 // dispatches of the last run per network
	next                                time.Duration
	nextCalls                           int64
	allocs, allocBytes, allocMemops     int64
}

func (t *simTally) add(s spec.Spec, r *stats.Run) {
	m := r.Metrics
	if m == nil {
		return
	}
	d := m.Kernel.TypedDispatches + m.Kernel.ClosureDispatches
	t.memops += r.MemOps
	t.dispatches += d
	ev := m.Kernel.Events
	t.tokens += ev.LinkToken
	t.hops += ev.LinkTxn
	t.handoffs += ev.OrderedHandoff
	t.portService += ev.PortService
	t.dataMsgs += ev.DataMsg
	t.tokenStalls += m.Network.TokenStalls
	t.heapPeak = max(t.heapPeak, m.Kernel.HeapPeak)
	t.misses += r.TotalMisses()
	t.c2c += r.Misses(stats.MissCacheToCache)
	if s.Protocol != system.ProtoTSSnoop {
		t.dirMisses += r.TotalMisses()
		t.dirRetries += r.Retries
	}
	if t.byNetwork == nil {
		t.byNetwork = map[string]int64{}
	}
	t.byNetwork[s.Network] = d
}

// report sets the simulator-layer metrics. passes scales the token
// stall count to one pass over the workload's simulations.
func (t *simTally) report(b *bench, passes int) {
	mo := float64(t.memops)
	b.set("sim.events_per_memop", ratio(float64(t.dispatches), mo))
	b.set("sim.dispatches_butterfly", float64(t.byNetwork[system.NetButterfly]))
	b.set("sim.dispatches_torus", float64(t.byNetwork[system.NetTorus]))
	b.set("sim.heap_peak", float64(t.heapPeak))
	b.set("tsnet.token_events_per_memop", ratio(float64(t.tokens), mo))
	b.set("tsnet.hop_events_per_memop", ratio(float64(t.hops), mo))
	b.set("tsnet.handoffs_per_memop", ratio(float64(t.handoffs), mo))
	b.set("tsnet.port_service_per_memop", ratio(float64(t.portService), mo))
	b.set("tsnet.token_stalls", ratio(float64(t.tokenStalls), float64(max(passes, 1))))
	b.set("protocol.c2c_miss_share", ratio(float64(t.c2c), float64(t.misses)))
	b.set("directory.retries_per_miss", ratio(float64(t.dirRetries), float64(t.dirMisses)))
	b.set("network.data_msgs_per_memop", ratio(float64(t.dataMsgs), mo))
	t.reportNext(b)
	b.set("system.allocs_per_memop", ratio(float64(t.allocs), float64(t.allocMemops)))
	b.set("system.bytes_per_memop", ratio(float64(t.allocBytes), float64(t.allocMemops)))
}

// reportNext sets workload.next_ns from the timed Next calls, if any.
func (t *simTally) reportNext(b *bench) {
	if t.nextCalls == 0 {
		return
	}
	own := t.next - time.Duration(t.nextCalls)*timerCost()
	b.set("workload.next_ns", max(0, float64(own))/float64(t.nextCalls))
}

// snoopPass is one request's outcome.
type snoopPass struct {
	wall, cpu time.Duration // the whole pass, in wall and process CPU time
	execute   time.Duration // wall time of the Execute calls
	memops    int64
	events    uint64 // kernel events run, warm-up included
	builds    []time.Duration
}

// snoopLoop runs passes until the measuring time is spent (at least
// one), checking every simulation's output. With tally non-nil the
// passes are traced: probe counters on, Next timed, allocations
// counted.
func snoopLoop(b *bench, specs []spec.Spec, measure time.Duration, tally *simTally) ([]snoopPass, error) {
	var passes []snoopPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < measure {
		var p snoopPass
		// Collecting the previous request's systems first makes the
		// peak resident set one request's, not a GC-timing accident.
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		var sims []prepared
		for _, s := range specs {
			if tally != nil {
				s.Metrics = true
			}
			ps, err := prepare(s, tally != nil)
			if err != nil {
				return nil, err
			}
			sims = append(sims, ps)
			p.builds = append(p.builds, ps.build)
		}
		for _, ps := range sims {
			var m0 runtime.MemStats
			if tally != nil {
				runtime.ReadMemStats(&m0)
			}
			te := time.Now()
			run := ps.sys.Execute()
			p.execute += time.Since(te)
			p.memops += ps.memops
			if tally != nil {
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				tally.allocs += int64(m1.Mallocs - m0.Mallocs)
				tally.allocBytes += int64(m1.TotalAlloc - m0.TotalAlloc)
				tally.allocMemops += ps.memops
				tally.add(ps.spec, run)
				tally.next += ps.gen.ns
				tally.nextCalls += ps.gen.calls
			} else {
				p.events += ps.sys.K.Executed()
			}
			if err := checkRun(b, ps.spec, run); err != nil {
				return nil, err
			}
		}
		p.wall, p.cpu = time.Since(t0), processCPU()-c0
		passes = append(passes, p)
	}
	return passes, nil
}

// checkRun compares a simulation's stats.Run JSON with the digest
// pinned for its spec.
func checkRun(b *bench, s spec.Spec, r *stats.Run) error {
	data, err := runJSON(r)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%s/%s", b.workload, s.Network)
	b.checkDigest(key, digest(data))
	return nil
}

// snoopSetupReps is how many times a run times the set-up on its own,
// after the first, which counts from process start.
const snoopSetupReps = 10

// snoopSetups times the workload's set-up, resolving and building both
// systems, and returns the samples in CPU seconds.
func snoopSetups(specs []spec.Spec) ([]float64, error) {
	var setups []float64
	for i := range snoopSetupReps + 1 {
		var from time.Duration // the first counts from process start
		if i > 0 {
			runtime.GC() // as in snoopLoop
			from = processCPU()
		}
		for _, s := range specs {
			if _, err := prepare(s, false); err != nil {
				return nil, err
			}
		}
		setups = append(setups, (processCPU() - from).Seconds())
	}
	return setups, nil
}

func runSnoop(b *bench, contention bool) error {
	specs := snoopSpecs(b.seed, contention)
	setups, err := snoopSetups(specs)
	if err != nil {
		return err
	}
	untraced, traced := b.phases()
	passes, err := snoopLoop(b, specs, untraced, nil)
	if err != nil {
		return err
	}
	var lat []float64
	var exec, cpu, wall time.Duration
	var memops int64
	var builds []float64
	var events uint64
	for _, p := range passes {
		events += p.events
		lat = append(lat, float64(p.wall)/float64(time.Millisecond))
		exec += p.execute
		cpu += p.cpu
		wall += p.wall
		memops += p.memops
		builds = append(builds, durations(p.builds, time.Millisecond)...)
	}
	untracedRate := ratio(float64(memops), cpu.Seconds())
	b.set("setup_s", percentile(setups, 0.5))
	b.set("memops_per_cpu_s", untracedRate)
	b.requests(len(passes), cpu, wall, lat)
	fmt.Fprintf(b.log, "snoop: %d passes of %d simulations, %d memops, %.3f s simulating\n",
		len(passes), len(specs), memops, exec.Seconds())
	if !b.trace {
		return nil
	}

	// ns_per_event is taken untraced, over every event the kernel ran.
	b.set("sim.ns_per_event", ratio(float64(exec.Nanoseconds()), float64(events)))
	b.set("system.build_ms", percentile(builds, 0.5))
	tally := &simTally{}
	clk0 := readCPUClock()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	tpasses, err := snoopLoop(b, specs, traced, tally)
	shares, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	b.set("runtime.gc_cpu_frac", readCPUClock().gcFrac(clk0))
	reportShares(b, shares)
	tally.report(b, len(tpasses))
	var tcpu time.Duration
	var tmemops int64
	for _, p := range tpasses {
		tcpu += p.cpu
		tmemops += p.memops
	}
	b.set("bench.trace_overhead_frac", ratio(untracedRate, ratio(float64(tmemops), tcpu.Seconds()))-1)
	if b.seed == defaultSeed && !contention {
		for network, want := range roadmapDispatches {
			got := tally.byNetwork[network]
			b.check(got == want, "%s-16 dispatched %d events in the measured window, want %d", network, got, want)
		}
	}
	fmt.Fprintf(b.log, "snoop: measured-window dispatches butterfly-16=%d torus-16=%d\n",
		tally.byNetwork[system.NetButterfly], tally.byNetwork[system.NetTorus])
	return nil
}
