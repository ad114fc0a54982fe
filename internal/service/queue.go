package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsnoop/internal/fault"
	"tsnoop/internal/parallel"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// SimFunc executes exactly one simulation: a validated spec with
// Seeds == 1 and Workers == 1 (the queue owns both fan-outs). The
// default is Spec.RunContext; tests inject counting or gated stubs.
type SimFunc func(ctx context.Context, s spec.Spec) (*stats.Run, error)

// Job states, in lifecycle order.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the externally visible snapshot of one job — what
// GET /v1/jobs/{id} returns.
type JobStatus struct {
	ID    string    `json:"id"`
	Key   string    `json:"key"`
	State string    `json:"state"`
	Spec  spec.Spec `json:"spec"`
	// SeedsDone / SeedsTotal expose per-job progress at simulation
	// granularity: a 20-seed job reports each finished seed.
	SeedsDone  int `json:"seeds_done"`
	SeedsTotal int `json:"seeds_total"`
	// Waiters counts requests deduplicated onto this job beyond the one
	// that started it.
	Waiters int    `json:"waiters"`
	Error   string `json:"error,omitempty"`
	// TraceID links the job to the request trace that started it (see
	// GET /v1/traces/{id}); empty when the submitter was untraced
	// (direct library use, the -cache CLI path).
	TraceID string `json:"trace_id,omitempty"`
	// StoreError records a failed persist of an otherwise successful
	// job: the result was still served (and the LRU still has it), only
	// the disk write failed.
	StoreError string    `json:"store_error,omitempty"`
	Created    time.Time `json:"created"`
	Finished   time.Time `json:"finished,omitzero"`
	// Spans break the job's wall-clock life into consecutive phases; each
	// fills in as the phase completes, so a running job already shows its
	// queue wait.
	Spans JobSpans `json:"spans"`
}

// JobSpans are per-job phase timings in microseconds of wall clock:
// how long the job sat queued before its first seed took a simulation
// slot, how long simulation (all seeds, plus result encoding) took, and
// how long the store write took. A job that fails before any seed gets
// a slot spends its whole life in QueueWaitUS. Wall-clock time never
// reaches the simulator — these time the service around it.
type JobSpans struct {
	QueueWaitUS  int64 `json:"queue_wait_us"`
	SimulateUS   int64 `json:"simulate_us"`
	StoreWriteUS int64 `json:"store_write_us"`
}

// job is the mutable record behind a JobStatus. Its life is recorded
// once, as the instants that bound its phases: created, started (the
// first seed took a simulation slot), simulated (the best run is
// encoded) and finished (stored, or failed). Every view — JobStatus,
// the request trace, /metrics — derives from them.
type job struct {
	mu     sync.Mutex
	status JobStatus // snapshot derives Created, Finished and Spans
	// created, started, simulated, finished are zero until reached.
	created, started, simulated, finished time.Time
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	st.Created = j.created.UTC()
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC()
	}
	durs := []*int64{&st.Spans.QueueWaitUS, &st.Spans.SimulateUS, &st.Spans.StoreWriteUS}
	for i, sp := range j.phasesLocked(j.created) {
		*durs[i] = sp.DurUS
	}
	return st
}

// phases lays the job's ended phases (queue_wait, simulate,
// store_write) out as spans at microsecond offsets from origin.
func (j *job) phases(origin time.Time) []TraceSpan {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.phasesLocked(origin)
}

// phasesLocked is phases with j.mu held. Each phase starts where the
// previous one ended, both instants truncated to whole microseconds
// after creation, so the spans tile exactly and every view reports the
// same durations. A failed job's unreached phases end at its finish: one
// that never got a slot spends its whole life in queue_wait.
func (j *job) phasesLocked(origin time.Time) []TraceSpan {
	names := [3]string{"queue_wait", "simulate", "store_write"}
	base := j.created.Sub(origin).Microseconds()
	spans := make([]TraceSpan, 0, 3)
	var from int64
	for i, end := range [3]time.Time{j.started, j.simulated, j.finished} {
		if end.IsZero() {
			end = j.finished
		}
		if end.IsZero() {
			break
		}
		to := end.Sub(j.created).Microseconds()
		spans = append(spans, TraceSpan{Name: names[i], StartUS: base + from, DurUS: to - from})
		from = to
	}
	return spans
}

// start marks the job running when its first seed takes a slot.
func (j *job) start() {
	j.mu.Lock()
	if j.started.IsZero() {
		j.started = time.Now()
		j.status.State = JobRunning
	}
	j.mu.Unlock()
}

func (j *job) simulatedNow() {
	j.mu.Lock()
	j.simulated = time.Now()
	j.mu.Unlock()
}

func (j *job) seedDone() {
	j.mu.Lock()
	j.status.SeedsDone++
	j.mu.Unlock()
}

func (j *job) addWaiter() {
	j.mu.Lock()
	j.status.Waiters++
	j.mu.Unlock()
}

func (j *job) finish(err, storeErr error) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.status.State, j.status.Error = JobFailed, err.Error()
	} else {
		j.status.State = JobDone
	}
	if storeErr != nil {
		j.status.StoreError = storeErr.Error()
	}
	j.mu.Unlock()
}

// Result is one answered experiment: the stable Run JSON (byte-identical
// across store hits, in-flight joins, and the original computation), the
// decoded run, and how the answer was produced.
type Result struct {
	// Key is the spec's canonical content address.
	Key string
	// JobID names the job that computed (or is computing) the result;
	// empty when the store answered directly.
	JobID string
	// Data is the canonical stats.Run JSON.
	Data []byte
	// Run is the decoded result.
	Run *stats.Run
	// Cached reports a result served from the store without any job.
	Cached bool
	// Shared reports a result obtained by joining an identical in-flight
	// job (singleflight) rather than starting a new one.
	Shared bool
	// Remote names the owning peer that answered a forwarded miss;
	// empty when this node answered from its own store or queue.
	Remote string
}

// flight is one in-progress computation of a key. Duplicate submissions
// join the flight instead of re-simulating.
type flight struct {
	job  *job
	done chan struct{} // closed once data/run/err are final
	data []byte
	run  *stats.Run
	err  error
}

// Queue is the dedup job scheduler: identical in-flight specs are
// singleflighted onto one job, distinct specs fan out across a bounded
// simulation pool (internal/parallel semantics: one slot per concurrent
// simulation), finished results land in the content-addressed store,
// and every job exposes per-seed progress.
//
// A job, once started, runs on the queue's base context rather than the
// submitting request's: a client that disconnects mid-run does not
// cancel work other clients may have joined, and the result still lands
// in the store. Cancelling the base context (queue shutdown) stops
// everything.
type Queue struct {
	store *Store
	sim   SimFunc
	base  context.Context
	slots chan struct{}
	keep  int

	// inflight counts started flights; Drain waits on it so shutdown
	// never kills a simulation whose submitter already disconnected.
	inflight sync.WaitGroup

	// panics counts recovered seed-worker panics (each recovery, so a
	// retried-then-persisted panic counts twice) — the
	// tsnoop_panics_recovered_total signal.
	panics atomic.Int64

	mu      sync.Mutex
	flights map[string]*flight
	jobs    map[string]*job
	order   []string // job IDs in creation order, for history eviction
	nextID  int64
}

// DefaultKeep is the finished-job history bound when NewQueue gets keep 0.
const DefaultKeep = 1024

// NewQueue builds a queue over a store. workers bounds concurrent
// simulations (0 = one per CPU); keep bounds the retained finished-job
// history (0 = DefaultKeep); sim is the single-simulation executor
// (nil = Spec.RunContext); base is the lifecycle context jobs run on
// (nil = context.Background()).
func NewQueue(store *Store, workers, keep int, sim SimFunc, base context.Context) *Queue {
	if sim == nil {
		sim = func(ctx context.Context, s spec.Spec) (*stats.Run, error) { return s.RunContext(ctx) }
	}
	if base == nil {
		base = context.Background()
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Queue{
		store:   store,
		sim:     sim,
		base:    base,
		slots:   make(chan struct{}, parallel.Workers(workers)),
		keep:    keep,
		flights: make(map[string]*flight),
		jobs:    make(map[string]*job),
	}
}

// Do answers one spec: from the store if the result exists, by joining
// an identical in-flight job if one is running, and by scheduling a new
// job otherwise. The returned Data is byte-identical across all three
// paths. ctx bounds only this caller's wait — an already-started job
// keeps running for other waiters and the store.
func (q *Queue) Do(ctx context.Context, s spec.Spec) (Result, error) {
	s, key, err := prepare(s)
	if err != nil {
		return Result{}, err
	}
	return q.do(ctx, s, key)
}

// prepare is the request preamble, run once per request: it validates
// the spec, clears its instrumentation knobs, and computes its
// canonical key. The store's contract is byte-identical payloads per
// canonical key, and Normalize clears the metrics and spans knobs (an
// instrumented run is the same experiment), so an instrumented
// rendering could collide with the plain one under the same key. The
// service answers the experiment; telemetry stays a local-CLI concern.
func prepare(s spec.Spec) (spec.Spec, string, error) {
	if err := s.Validate(); err != nil {
		return s, "", err
	}
	s.Metrics = false
	s.Spans = false
	return s, s.Canonical(), nil
}

// do is Do for a spec prepare has already vetted under key.
func (q *Queue) do(ctx context.Context, s spec.Spec, key string) (Result, error) {
	at := traceFrom(ctx)
	getStart := time.Now()
	if data, ok, err := q.store.Get(key); err != nil {
		return Result{}, err
	} else if ok {
		run, err := decodeRun(data)
		if err != nil {
			return Result{}, fmt.Errorf("service: stored result %s is unreadable: %w", key[:12], err)
		}
		at.span("store_get", getStart, "hit")
		return Result{Key: key, Data: data, Run: run, Cached: true}, nil
	}
	at.span("store_get", getStart, "miss")

	q.mu.Lock()
	if f, ok := q.flights[key]; ok {
		f.job.addWaiter()
		q.mu.Unlock()
		return q.wait(ctx, key, f, true)
	}
	f := &flight{job: q.newJobLocked(key, s, TraceID(ctx)), done: make(chan struct{})}
	q.flights[key] = f
	q.inflight.Add(1)
	q.mu.Unlock()
	go q.execute(f, s, key)
	return q.wait(ctx, key, f, false)
}

// wait blocks until the flight completes or the caller's context fires.
func (q *Queue) wait(ctx context.Context, key string, f *flight, shared bool) (Result, error) {
	select {
	case <-f.done:
		if f.err != nil {
			return Result{}, f.err
		}
		// The job's wall-clock phases join the waiting request's trace; a
		// joined request shows the shared job's phases too.
		id := f.job.status.ID // fixed at creation
		traceFrom(ctx).jobPhases(id, f.job)
		return Result{Key: key, JobID: id, Data: f.data, Run: f.run, Shared: shared}, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// newJobLocked registers a new job record; q.mu must be held. Finished
// jobs past the history bound are evicted oldest-first (jobs still
// queued or running are never evicted).
func (q *Queue) newJobLocked(key string, s spec.Spec, traceID string) *job {
	q.nextID++
	j := &job{created: time.Now(), status: JobStatus{
		ID:         fmt.Sprintf("job-%06d", q.nextID),
		Key:        key,
		State:      JobQueued,
		Spec:       s,
		SeedsTotal: s.Seeds,
		TraceID:    traceID,
	}}
	q.jobs[j.status.ID] = j
	q.order = append(q.order, j.status.ID)
	for len(q.order) > q.keep {
		evicted := false
		for i, id := range q.order {
			st := q.jobs[id].snapshot().State
			if st == JobDone || st == JobFailed {
				delete(q.jobs, id)
				q.order = append(q.order[:i], q.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live; let the history run long rather than lose live jobs
		}
	}
	return j
}

// execute runs one flight to completion on the queue's base context and
// publishes the result to the store and to every waiter.
func (q *Queue) execute(f *flight, s spec.Spec, key string) {
	defer func() {
		q.mu.Lock()
		delete(q.flights, key)
		q.mu.Unlock()
		close(f.done)
		q.inflight.Done()
	}()
	run, err := q.runSeeds(q.base, s, f.job)
	if err == nil {
		f.data, err = json.Marshal(run)
	}
	if err != nil {
		f.err = err
		f.data = nil
		f.job.finish(err, nil)
		return
	}
	f.run = run
	f.job.simulatedNow()
	// A failed persist (full or read-only directory) must not discard a
	// computed result: serve it, keep it in the LRU, and surface the
	// store trouble on the job instead of degrading every client to 500s.
	storeErr := q.store.Put(key, f.data)
	f.job.finish(nil, storeErr)
}

// Drain blocks until every in-flight job has finished (or ctx fires) —
// the graceful-shutdown handshake: jobs whose submitters disconnected
// still run to completion and land in the store before the process
// exits.
func (q *Queue) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		q.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runSeeds fans the spec's perturbed seed copies across the shared
// simulation pool — each seed takes one slot, so the concurrency bound
// holds across all jobs — collects them in seed order, and reports the
// minimum-runtime run (the paper's rule, same as Spec.Run). The job
// stays queued until its first seed takes a slot.
func (q *Queue) runSeeds(ctx context.Context, s spec.Spec, j *job) (*stats.Run, error) {
	n := s.Seeds
	runs := make([]*stats.Run, 0, n)
	for run, err := range parallel.Stream(ctx, n, n, func(i int) (*stats.Run, error) {
		select {
		case q.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-q.slots }()
		j.start()
		one := s
		one.Seed += uint64(i)
		one.Seeds = 1
		one.Workers = 1
		r, err := q.simSafe(ctx, one)
		if err == nil {
			j.seedDone()
		}
		return r, err
	}) {
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return stats.Best(runs), nil
}

// PanicError is a seed-worker panic recovered into a job error: the
// panic value plus the goroutine stack captured at recovery, so a
// poisoned spec is diagnosable from the job record instead of from a
// crashed process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("simulation panicked: %v\n%s", e.Value, e.Stack)
}

// simSafe runs one seed's simulation with panic isolation. A panic is
// recovered into a *PanicError — one poisoned spec fails one job, never
// the process — and the seed is retried once: transient poison (a
// corrupted input that recomputes clean, an injected fault) recovers
// invisibly, while a deterministic panic fails the job with the
// captured stack.
func (q *Queue) simSafe(ctx context.Context, s spec.Spec) (*stats.Run, error) {
	r, err := q.simOnce(ctx, s)
	var pe *PanicError
	if errors.As(err, &pe) && ctx.Err() == nil {
		r, err = q.simOnce(ctx, s)
		if errors.As(err, &pe) {
			err = fmt.Errorf("service: seed panic persisted after retry: %w", pe)
		}
	}
	return r, err
}

// simOnce executes exactly one simulation, converting a panic into an
// error and applying the queue's failpoints (injected worker panics
// and slow seeds).
func (q *Queue) simOnce(ctx context.Context, s spec.Spec) (r *stats.Run, err error) {
	defer func() {
		if v := recover(); v != nil {
			q.panics.Add(1)
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if f := fault.Active(); f != nil {
		if d := f.Delay(fault.QueueSeedSlow); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
		if f.Fire(fault.QueueSeedPanic) {
			panic("fault: injected seed panic")
		}
	}
	return q.sim(ctx, s)
}

// Job returns the status snapshot of one job.
func (q *Queue) Job(id string) (JobStatus, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// Jobs snapshots every retained job, sorted by id ascending — the
// GET /v1/jobs contract. IDs are sequential ("job-%06d"), so this is
// also creation order today; the explicit sort pins the contract
// rather than leaning on how the history list happens to be
// maintained. Shorter ids sort first so the order survives the id
// counter outgrowing its zero padding.
func (q *Queue) Jobs() []JobStatus {
	q.mu.Lock()
	ids := append([]string(nil), q.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, q.jobs[id])
	}
	q.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// QueueStats counts retained jobs by state plus total dedup joins.
type QueueStats struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Joined  int `json:"joined"` // requests answered by joining an in-flight job
	// PanicsRecovered counts seed-worker panics recovered into job
	// errors (or invisible retries) instead of process deaths.
	PanicsRecovered int64 `json:"panics_recovered"`
}

// Stats snapshots the queue's counters.
func (q *Queue) Stats() QueueStats {
	var qs QueueStats
	for _, j := range q.Jobs() {
		switch j.State {
		case JobQueued:
			qs.Queued++
		case JobRunning:
			qs.Running++
		case JobDone:
			qs.Done++
		case JobFailed:
			qs.Failed++
		}
		qs.Joined += j.Waiters
	}
	qs.PanicsRecovered = q.panics.Load()
	return qs
}

// decodeRun parses stored Run JSON.
func decodeRun(data []byte) (*stats.Run, error) {
	run := new(stats.Run)
	if err := json.Unmarshal(data, run); err != nil {
		return nil, err
	}
	return run, nil
}
