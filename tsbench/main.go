// Command tsbench is tsnoop's end-to-end benchmark. One invocation runs
// one workload for a fixed measuring time and prints every metric by
// name and unit, then, as its last line, one JSON result object:
//
//	go run . --workload snoop --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	snoop             OLTP on TS-Snoop, 16-node butterfly then torus (the paper's setting)
//	snoop-contention  the same two simulations with switch contention modelled
//	grid              the Figure 3/4 grid, 5 benchmarks x 3 protocols x 2 networks, streamed
//	service           a 3-node loopback cluster answering POST /v1/runs in a closed loop
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with every probe off; throughput and set-up are in process CPU
// seconds, which a shared machine disturbs far less than wall time
// (README.md has the figures). With --trace 1 the run measures half its time
// untraced and half traced (probe counters, timing wrappers, a CPU
// profile, request traces), and the result carries the per-layer
// metrics. Every output is checked; a wrong output counts as a failed
// operation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// defaultSeed is the seed whose outputs are pinned (digests.go).
const defaultSeed = 1

// metricDef names one reported metric. The lists below are the
// benchmark's contract with BENCHMARK.json, which names the same
// metrics in the same order.
type metricDef struct{ name, unit string }

// endToEnd are reported by every workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"memops_per_cpu_s", "ops/cpu-s"},
	{"requests_per_cpu_s", "1/cpu-s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are reported by every workload with --trace 1. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"bench.requests_per_s", "1/s"},
	{"bench.request_p50_ms", "ms"},
	{"bench.request_p99_ms", "ms"},
	{"sim.events_per_memop", "events/op"},
	{"sim.dispatches_butterfly", "count"},
	{"sim.dispatches_torus", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.heap_peak", "count"},
	{"sim.cpu_share", "fraction"},
	{"tsnet.token_events_per_memop", "events/op"},
	{"tsnet.hop_events_per_memop", "events/op"},
	{"tsnet.handoffs_per_memop", "events/op"},
	{"tsnet.port_service_per_memop", "events/op"},
	{"tsnet.token_stalls", "count"},
	{"tsnet.cpu_share", "fraction"},
	{"tssnoop.cpu_share", "fraction"},
	{"protocol.c2c_miss_share", "fraction"},
	{"directory.cpu_share", "fraction"},
	{"directory.retries_per_miss", "ratio"},
	{"network.cpu_share", "fraction"},
	{"network.data_msgs_per_memop", "msgs/op"},
	{"processor.cpu_share", "fraction"},
	{"cache.cpu_share", "fraction"},
	{"coherence.cpu_share", "fraction"},
	{"workload.next_ns", "ns"},
	{"workload.cpu_share", "fraction"},
	{"system.build_ms", "ms"},
	{"system.allocs_per_memop", "allocs/op"},
	{"system.bytes_per_memop", "B/op"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"harness.grid_s", "s"},
	{"harness.cell_ms_p50", "ms"},
	{"harness.cell_ms_max", "ms"},
	{"harness.tssnoop_cell_s", "s"},
	{"harness.directory_cell_s", "s"},
	{"parallel.busy_frac", "fraction"},
	{"http.overhead_us_p50", "us"},
	{"service.route_us_p50", "us"},
	{"service.miss_p50_ms", "ms"},
	{"service.miss_p90_ms", "ms"},
	{"service.cpu_share", "fraction"},
	{"nethttp.cpu_share", "fraction"},
	{"store.get_us_p50", "us"},
	{"store.get_us_p99", "us"},
	{"store.hit_ratio", "fraction"},
	{"store.write_ms_p50", "ms"},
	{"queue.wait_ms_p50", "ms"},
	{"queue.simulate_ms_p50", "ms"},
	{"cluster.forward_us_p50", "us"},
	{"cluster.forward_share", "fraction"},
	{"cluster.replicate_us_p50", "us"},
	{"cluster.forward_errors", "count"},
	{"cluster.cpu_share", "fraction"},
	{"bench.trace_overhead_frac", "fraction"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"snoop":            func(b *bench) error { return runSnoop(b, false) },
	"snoop-contention": func(b *bench) error { return runSnoop(b, true) },
	"grid":             runGrid,
	"service":          runService,
}

// bench is one benchmark invocation: its options, its clock, and the
// tallies and metrics a workload fills in.
type bench struct {
	workload string
	seed     uint64
	measure  time.Duration
	trace    bool
	start    time.Time // process start, for the first set-up
	log      io.Writer // human-readable lines

	attempted, failed int64
	metrics           map[string]float64
	digests           *digestChecker
}

// check counts one checked operation, failing it when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "tsbench: FAILED: "+format+"\n", args...)
	}
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// requests records the measuring loop's requests: their count, the
// process CPU and wall time they took, and each one's wall latency in
// ms. Wall-clock figures are per-layer metrics: on a shared machine
// they move with the neighbours' load, where CPU time barely does.
func (b *bench) requests(n int, cpu, wall time.Duration, latMS []float64) {
	b.set("requests_per_cpu_s", ratio(float64(n), cpu.Seconds()))
	b.set("bench.requests_per_s", ratio(float64(n), wall.Seconds()))
	b.set("bench.request_p50_ms", percentile(latMS, 0.5))
	b.set("bench.request_p99_ms", percentile(latMS, 0.99))
}

// untracedShare is the fraction of a --trace 1 run measured untraced,
// the reference bench.trace_overhead_frac compares the traced rest to.
const untracedShare = 0.5

// phases splits the measuring time: everything untraced for --trace 0,
// an untraced then a traced segment for --trace 1.
func (b *bench) phases() (untraced, traced time.Duration) {
	if !b.trace {
		return b.measure, 0
	}
	u := time.Duration(float64(b.measure) * untracedShare)
	return u, b.measure - u
}

func main() {
	start := time.Now()
	if err := run(os.Args[1:], os.Stdout, start); err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, start time.Time) error {
	fs := flag.NewFlagSet("tsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: snoop, snoop-contention, grid, or service")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the program only sees the specs generated from it")
	seconds := fs.Int("seconds", 20, "measuring time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive := workloads[*name]
	if drive == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		start:    start,
		log:      stdout,
		metrics:  map[string]float64{},
	}
	fmt.Fprintf(stdout, "tsbench: workload=%s seed=%d seconds=%d trace=%d\n", b.workload, b.seed, *seconds, *trace)
	fmt.Fprintf(stdout, "env: %s\n", hostInfo())
	if b.trace {
		// Layers a workload does not exercise read 0.
		for _, d := range perLayer {
			b.set(d.name, 0)
		}
	}
	if err := drive(b); err != nil {
		return err
	}
	if !b.trace {
		b.set("peak_rss_mb", peakRSSMiB())
	}
	return report(b, stdout)
}

// report prints every metric of the mode by name and unit, then the
// JSON result line.
func report(b *bench, w io.Writer) error {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", b.workload, d.name)
		}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = value{v, d.unit}
	}
	if b.attempted == 0 {
		return fmt.Errorf("workload %s checked no output", b.workload)
	}
	fmt.Fprintf(w, "%-30s %14.6g fraction (%d of %d operations)\n", "error_rate",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// forEach calls fn(0) .. fn(n-1) on workers() goroutines and returns
// once every call has.
func forEach(n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// workers is the client and worker count: one per CPU.
func workers() int { return runtime.NumCPU() }
