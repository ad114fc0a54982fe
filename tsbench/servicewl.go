package main

// The service workload: a 3-node in-process cluster on loopback
// listeners (service.New, cluster.New, service.NewHandler), each node
// with an on-disk store, one simulation worker, and an LRU smaller than
// the key set. Set-up starts the nodes and prefills every key through
// the entry node; then nproc clients post /v1/runs to the entry node in
// a closed loop, as callers of `tsnoop submit` do, each waiting for its
// reply before sending the next.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"tsnoop/internal/cluster"
	"tsnoop/internal/service"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

const (
	// serviceKeys is the number of distinct specs repeat requests cover.
	serviceKeys = 200
	// serviceLRU is each node's in-memory result cache, smaller than the
	// key set so repeats also exercise disk hits with verification.
	serviceLRU = 64
	// missShare is the share of requests for never-seen specs.
	missShare = 0.01
	// zipfS skews repeats towards a hot subset of the keys.
	zipfS = 1.1
	// serviceNodes is the cluster size.
	serviceNodes = 3
	// serviceSetups is how many times a run sets up the cluster; the
	// median is setup_s and the last cluster serves the loop.
	serviceSetups = 3
	// specNodes, specWarmup and specQuota size every spec: a small
	// barnes run, so simulation stays a small share of the service.
	specNodes, specWarmup, specQuota = 4, 100, 200
	// verifiedMisses is how many never-seen answers are re-simulated
	// locally and compared byte for byte; the rest are checked for
	// shape.
	verifiedMisses = 8
)

// specMemops is the simulated memops (warm-up + measured, all CPUs) of
// every service spec.
const specMemops = specNodes * (specWarmup + specQuota)

// serviceSpec is the i-th spec of a seed's key space: indexes below
// serviceKeys are the repeat set, the rest are never-seen specs.
func serviceSpec(seed uint64, i int) spec.Spec {
	return spec.New("barnes", spec.WithNodes(specNodes), spec.WithWarmup(specWarmup),
		spec.WithQuota(specQuota), spec.WithSeed(seed<<32|uint64(i)))
}

// requestMix is the closed loop's request sequence, a pure function of
// the seed: each request names a key drawn Zipf-skewed over a seeded
// permutation of the repeat set, or, with probability missShare, the
// next never-seen spec.
type requestMix struct {
	mu     sync.Mutex
	rng    *rand.Rand
	zipf   *rand.Zipf
	perm   []int
	misses int
}

func newRequestMix(seed uint64) *requestMix {
	rng := rand.New(rand.NewPCG(seed, 0x7473626e6f6f70))
	return &requestMix{
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, serviceKeys-1),
		perm: rng.Perm(serviceKeys),
	}
}

// assign reorders which key holds which popularity rank so that ranks
// cycle through the cluster members, entry node first: rank r goes to
// the next key, in seeded order, that member r mod serviceNodes owns.
// The ring hashes the listeners' addresses, so without this the share
// of forwarded repeats would change with every run's ports. owner maps
// a key index to its member, 0 being the entry node.
func (m *requestMix) assign(owner func(key int) int) {
	byOwner := make([][]int, serviceNodes)
	for _, k := range m.perm {
		o := owner(k)
		byOwner[o] = append(byOwner[o], k)
	}
	perm := make([]int, 0, len(m.perm))
	for r := 0; len(perm) < len(m.perm); r++ {
		// A member out of keys passes its turn to the next one.
		for o := r % serviceNodes; ; o = (o + 1) % serviceNodes {
			if len(byOwner[o]) > 0 {
				perm = append(perm, byOwner[o][0])
				byOwner[o] = byOwner[o][1:]
				break
			}
		}
	}
	m.perm = perm
}

// next returns the next request's spec index and whether it is a
// never-seen spec. Safe for concurrent use; the sequence does not
// depend on which client draws which entry.
func (m *requestMix) next() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rng.Float64() < missShare {
		m.misses++
		return serviceKeys + m.misses - 1, true
	}
	return m.perm[m.zipf.Uint64()], false
}

// fleet is one running cluster.
type fleet struct {
	dir     string
	nodes   []*http.Server
	urls    []string
	done    []chan struct{}
	members []string
	entry   *cluster.Cluster // the entry node's view of the ring
}

// owner returns the index of the member that owns a spec's key.
func (f *fleet) owner(s spec.Spec) int {
	peer, _ := f.entry.Route(s.Canonical())
	return slices.Index(f.members, peer)
}

// startFleet boots serviceNodes federated nodes on loopback, each with
// its own store directory under dir. Listeners are bound first so every
// member list names real addresses.
func startFleet(dir string) (*fleet, error) {
	f := &fleet{dir: dir}
	lns := make([]net.Listener, serviceNodes)
	members := make([]string, serviceNodes)
	f.members = members
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		members[i] = ln.Addr().String()
	}
	for i, ln := range lns {
		c, err := cluster.New(cluster.Config{
			Self:    members[i],
			Members: members,
			Client:  cluster.NewHTTPClient(cluster.DefaultTimeouts()),
		})
		var sv *service.Service
		if err == nil {
			sv, err = service.New(service.Config{
				Dir:     filepath.Join(dir, fmt.Sprintf("node%d", i)),
				LRU:     serviceLRU,
				Workers: 1,
				Cluster: c,
			})
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		if i == 0 {
			f.entry = c
		}
		srv := &http.Server{Handler: service.NewHandler(sv), ReadHeaderTimeout: 10 * time.Second}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ln)
		}()
		sv.SetReady(true, "")
		f.nodes = append(f.nodes, srv)
		f.urls = append(f.urls, "http://"+members[i])
		f.done = append(f.done, done)
	}
	return f, nil
}

// close stops every node, waits for its server to return, and removes
// the stores.
func (f *fleet) close() {
	for i, srv := range f.nodes {
		srv.Close()
		<-f.done[i]
	}
	os.RemoveAll(f.dir)
}

// httpClient is the loop's client: one keep-alive connection per
// client goroutine.
func httpClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: workers() + 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// reply is one answered request.
type reply struct {
	status  int
	body    []byte
	traceID string
	latency time.Duration
}

func post(c *http.Client, url string, body []byte) (reply, error) {
	t0 := time.Now()
	resp, err := c.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data, traceID: resp.Header.Get(cluster.TraceHeader), latency: time.Since(t0)}, nil
}

// prefill posts every repeat spec once through the entry node, nproc at
// a time, and returns the answer bytes per key index.
func prefill(c *http.Client, url string, specs [][]byte) ([][]byte, error) {
	bodies := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	forEach(len(specs), func(i int) {
		r, err := post(c, url, specs[i])
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("prefill: status %d: %s", r.status, strings.TrimSpace(string(r.body)))
		}
		bodies[i], errs[i] = r.body, err
	})
	return bodies, errors.Join(errs...)
}

// outcome is one loop request kept for the checks after the loop.
type outcome struct {
	index   int
	miss    bool
	err     error
	reply   reply
	wrong   bool           // a repeat answered other bytes than its pin
	trace   *service.Trace // traced segment only
	fetched error
}

// loopResult is one closed loop's outcome. A repeat answered with its
// pinned bytes is kept as its latency alone, so the benchmark's own
// memory does not grow with the request count; never-seen specs,
// failures and traced requests keep their outcome.
type loopResult struct {
	requests int
	hitMS    []float64 // answered, correct repeats
	kept     []outcome
}

// closedLoop drives nproc clients against the entry node until the
// deadline. traced clients also fetch each request's trace.
func closedLoop(c *http.Client, url string, mix *requestMix, specJSON func(int) []byte, pins [][]byte, deadline time.Time, traced bool) loopResult {
	n := workers()
	per := make([]loopResult, n)
	var wg sync.WaitGroup
	for w := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &per[w]
			for time.Now().Before(deadline) {
				i, miss := mix.next()
				o := outcome{index: i, miss: miss}
				o.reply, o.err = post(c, url, specJSON(i))
				r.requests++
				answered := o.err == nil && o.reply.status == http.StatusOK
				if answered && !miss {
					o.wrong = !bytes.Equal(o.reply.body, pins[i])
					o.reply.body = nil
					if !o.wrong && !traced {
						r.hitMS = append(r.hitMS, float64(o.reply.latency)/float64(time.Millisecond))
						continue
					}
				}
				if traced && answered {
					o.trace, o.fetched = fetchTrace(c, url, o.reply.traceID)
				}
				r.kept = append(r.kept, o)
			}
		}()
	}
	wg.Wait()
	var all loopResult
	for _, r := range per {
		all.requests += r.requests
		all.hitMS = append(all.hitMS, r.hitMS...)
		all.kept = append(all.kept, r.kept...)
	}
	return all
}

// fetchTrace reads one request's trace from the node that served it.
func fetchTrace(c *http.Client, url, id string) (*service.Trace, error) {
	resp, err := c.Get(url + "/v1/traces/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	var tr service.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// promSum sums every sample of a Prometheus metric family in a /metrics
// exposition.
func promSum(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(rest[strings.LastIndexByte(rest, ' ')+1:], &v); err == nil {
			sum += v
		}
	}
	return sum
}

// scrape sums a metric family over every node's /metrics.
func (f *fleet) scrape(c *http.Client, names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range f.urls {
		resp, err := c.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			out[n] += promSum(string(data), n)
		}
	}
	return out, nil
}

func runService(b *bench) error {
	root, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("tsbench-service-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	repeat := make([][]byte, serviceKeys)
	for i := range repeat {
		repeat[i] = serviceSpec(b.seed, i).JSON()
	}
	// Each never-seen spec is requested once, so only repeats are kept.
	specs := func(i int) []byte {
		if i < serviceKeys {
			return repeat[i]
		}
		return serviceSpec(b.seed, i).JSON()
	}
	client := httpClient()
	defer client.CloseIdleConnections()

	// Set up serviceSetups times; each prefill must answer the same
	// bytes as the first, which become the pins the loop checks.
	var pins [][]byte
	var setups []float64
	var f *fleet
	for i := range serviceSetups {
		if f != nil {
			f.close()
		}
		var from time.Duration // the first counts from process start
		if i > 0 {
			from = processCPU()
		}
		f, err = startFleet(filepath.Join(root, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return err
		}
		bodies, err := prefill(client, f.urls[0], repeat)
		if err != nil {
			f.close()
			return err
		}
		setups = append(setups, (processCPU() - from).Seconds())
		if pins == nil {
			pins = bodies
			continue
		}
		for k := range bodies {
			b.check(bytes.Equal(bodies[k], pins[k]), "set-up %d answered key %d with different bytes", i, k)
		}
	}
	defer f.close()
	b.set("setup_s", percentile(setups, 0.5))

	mix := newRequestMix(b.seed)
	mix.assign(func(i int) int { return f.owner(serviceSpec(b.seed, i)) })
	untraced, traced := b.phases()
	t0, c0 := time.Now(), processCPU()
	res := closedLoop(client, f.urls[0], mix, specs, pins, t0.Add(untraced), false)
	wall, cpu := time.Since(t0), processCPU()-c0
	hitLat, missLat := checkOutcomes(b, res)
	b.set("memops_per_cpu_s", ratio(float64(res.requests*specMemops), cpu.Seconds()))
	// Latency percentiles are over repeats; never-seen specs have their
	// own, per layer.
	b.requests(res.requests, cpu, wall, hitLat)
	rate := ratio(float64(res.requests), cpu.Seconds())
	fmt.Fprintf(b.log, "service: %d requests (%d repeats, %d never-seen) by %d clients in %.3f s\n",
		res.requests, len(hitLat), len(missLat), workers(), wall.Seconds())
	if !b.trace {
		return nil
	}
	b.set("service.miss_p50_ms", percentile(missLat, 0.5))
	b.set("service.miss_p90_ms", percentile(missLat, 0.9))

	counters := []string{"tsnoop_store_hits_total", "tsnoop_store_misses_total", "tsnoop_cluster_forward_errors_total"}
	before, err := f.scrape(client, counters...)
	if err != nil {
		return err
	}
	clk0 := readCPUClock()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	t1, c1 := time.Now(), processCPU()
	tres := closedLoop(client, f.urls[0], mix, specs, pins, t1.Add(traced), true)
	tcpu := processCPU() - c1
	shares, perr := prof.stop()
	if perr != nil {
		return perr
	}
	b.set("runtime.gc_cpu_frac", readCPUClock().gcFrac(clk0))
	reportShares(b, shares)
	after, err := f.scrape(client, counters...)
	if err != nil {
		return err
	}
	checkOutcomes(b, tres)
	hits := after["tsnoop_store_hits_total"] - before["tsnoop_store_hits_total"]
	misses := after["tsnoop_store_misses_total"] - before["tsnoop_store_misses_total"]
	b.set("store.hit_ratio", ratio(hits, hits+misses))
	b.set("cluster.forward_errors", after["tsnoop_cluster_forward_errors_total"])
	reportTraces(b, tres.kept)
	b.set("bench.trace_overhead_frac", ratio(rate, ratio(float64(tres.requests), tcpu.Seconds()))-1)
	return nil
}

// checkOutcomes counts every loop request as one checked operation and
// returns the client latencies of repeats and never-seen specs in ms.
// A repeat must answer 200 with exactly its pinned bytes; a never-seen
// spec must answer 200 with a stats.Run of the spec's measured memops,
// and the first verifiedMisses are re-simulated locally and compared
// byte for byte.
func checkOutcomes(b *bench, res loopResult) (hitMS, missMS []float64) {
	b.attempted += int64(len(res.hitMS)) // checked as they arrived
	hitMS = res.hitMS
	verified := 0
	for _, o := range res.kept {
		if o.err != nil || o.reply.status != http.StatusOK {
			b.check(false, "request for spec %d: status %d, error %v", o.index, o.reply.status, o.err)
			continue
		}
		ms := float64(o.reply.latency) / float64(time.Millisecond)
		if !o.miss {
			hitMS = append(hitMS, ms)
			b.check(!o.wrong, "spec %d answered bytes differing from its prefill", o.index)
			continue
		}
		missMS = append(missMS, ms)
		var run stats.Run
		err := json.Unmarshal(o.reply.body, &run)
		ok := err == nil && run.MemOps == specNodes*specQuota
		if ok && verified < verifiedMisses {
			verified++
			want, err := localAnswer(serviceSpec(b.seed, o.index))
			ok = err == nil && bytes.Equal(o.reply.body, want)
		}
		b.check(ok, "never-seen spec %d answered a wrong result", o.index)
	}
	return hitMS, missMS
}

// localAnswer is the /v1/runs body a spec must receive, simulated here.
func localAnswer(s spec.Spec) ([]byte, error) {
	run, err := s.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(run)
	return append(data, '\n'), err
}

// reportTraces derives the service-layer metrics from the traced
// requests' spans: the entry node's own and, for forwarded requests,
// the owner's.
func reportTraces(b *bench, outs []outcome) {
	spans := map[string][]float64{} // span name -> durations in us
	var overhead []float64
	var traces, forwarded int
	for _, o := range outs {
		if o.trace == nil {
			// Unanswered requests were counted failed already.
			if o.err == nil && o.reply.status == http.StatusOK {
				b.check(false, "trace %s of spec %d unavailable: %v", o.reply.traceID, o.index, o.fetched)
			}
			continue
		}
		traces++
		overhead = append(overhead, float64(o.reply.latency.Microseconds()-o.trace.DurUS))
		for _, s := range append(o.trace.Spans, o.trace.RemoteSpans...) {
			spans[s.Name] = append(spans[s.Name], float64(s.DurUS))
			if s.Name == "forward" {
				forwarded++
			}
		}
	}
	b.set("http.overhead_us_p50", percentile(overhead, 0.5))
	b.set("service.route_us_p50", percentile(spans["route"], 0.5))
	b.set("store.get_us_p50", percentile(spans["store_get"], 0.5))
	b.set("store.get_us_p99", percentile(spans["store_get"], 0.99))
	b.set("store.write_ms_p50", percentile(spans["store_write"], 0.5)/1000)
	b.set("queue.wait_ms_p50", percentile(spans["queue_wait"], 0.5)/1000)
	b.set("queue.simulate_ms_p50", percentile(spans["simulate"], 0.5)/1000)
	b.set("cluster.forward_us_p50", percentile(spans["forward"], 0.5))
	b.set("cluster.replicate_us_p50", percentile(spans["replicate"], 0.5))
	b.set("cluster.forward_share", ratio(float64(forwarded), float64(traces)))
}
