// Package service turns the one-shot experiment engine into a
// long-lived experiment service, so identical grid cells are never
// re-simulated. Three pieces compose:
//
//   - a content-addressed result store (Store): spec.Canonical() hashes
//     the normalized Spec, and a disk-backed, shard-per-prefix layout
//     with an in-memory LRU in front maps hash -> stats.Run JSON, so any
//     previously computed experiment is served without simulation and
//     byte-identically to its first computation;
//
//   - a dedup job queue (Queue): identical in-flight specs singleflight
//     onto one job, distinct specs fan their perturbed seeds across a
//     bounded simulation pool, and every job exposes per-seed progress;
//
//   - an HTTP API (NewHandler): POST /v1/runs answers one Spec with its
//     Run JSON, POST /v1/grids and /v1/sweeps stream NDJSON cells in
//     presentation order as they finish, GET /v1/jobs/{id} reports
//     progress, and GET /healthz reports store and queue counters.
//
// A Service optionally joins a cluster (internal/cluster): a static
// consistent-hash ring shards the canonical key space across N serve
// processes, misses whose key another member owns are forwarded there
// (so the dedup queue's singleflight stays global, not per-node), the
// returned result is replicated into this node's LRU front, and an
// unreachable owner degrades to local compute — the stream never fails
// and never changes a byte.
//
// The same bar holds under faults (internal/fault injects them
// deterministically): store entries carry a per-entry checksum and a
// corrupt or truncated file is quarantined and recomputed, a panicking
// simulation is recovered into its one job's error and retried once,
// and a repeatedly failing peer trips a per-peer circuit breaker that
// routes around it until a cooldown probe heals. Every degradation
// costs recomputation, never a changed client byte — the chaos test in
// chaos_test.go holds a 3-node cluster under a seeded fault schedule
// to the single-node reference bytes.
//
// cmd/tsnoop wires this up as the serve and submit subcommands, and the
// run/grid/sweep subcommands hit the same store locally via -cache.
package service

import (
	"context"
	"errors"
	"iter"
	"log/slog"
	"sync"
	"time"

	"tsnoop/internal/cluster"
	"tsnoop/internal/harness"
	"tsnoop/internal/parallel"
	"tsnoop/internal/spec"
)

// Config parameterizes a Service.
type Config struct {
	// Dir is the result store directory; empty keeps results in memory
	// only (the LRU still serves repeats, nothing persists).
	Dir string
	// LRU bounds the in-memory result cache entries (0 = DefaultLRU).
	LRU int
	// Workers bounds concurrent simulations across all jobs
	// (0 = one per CPU).
	Workers int
	// Sim executes one simulation (nil = Spec.RunContext); tests inject
	// stubs to count or gate executions.
	Sim SimFunc
	// BaseContext is the lifecycle context started jobs run on (nil =
	// context.Background()): a CLI passes its interrupt context so
	// Ctrl-C cancels simulations, a server passes its own lifetime so
	// request disconnects do not.
	BaseContext context.Context
	// Version is the build identifier /healthz reports (empty = omitted).
	Version string
	// Logger, when non-nil, receives one structured access-log record per
	// HTTP request (method, path, status, bytes, duration). Nil disables
	// access logging; the /metrics counters run either way.
	Logger *slog.Logger
	// Cluster federates this node into a static peer ring (nil = single
	// node): misses whose canonical key another member owns are
	// forwarded there and the result rides back into this node's LRU.
	Cluster *cluster.Cluster
	// MaxCells bounds this node's in-flight streamed cells on /v1/grids
	// and /v1/sweeps; past it new streams are refused with 429 +
	// Retry-After (0 = cluster.DefaultMaxCells, negative = unlimited).
	MaxCells int
}

// Service is the experiment service: a store fronted by a dedup queue,
// with grid/sweep streaming that mirrors the harness engine cell for
// cell.
type Service struct {
	store   *Store
	queue   *Queue
	cluster *cluster.Cluster
	shed    *cluster.Admission

	version string
	logger  *slog.Logger
	started time.Time
	httpm   httpMetrics
	traces  *traceRing

	// readiness gates /readyz: a node reports 503 before serve marks it
	// ready (listener + ring up) and again once a drain begins, so load
	// balancers stop routing before the listener closes.
	readyMu     sync.Mutex
	ready       bool
	readyReason string
}

// New opens the store and builds the queue.
func New(cfg Config) (*Service, error) {
	store, err := OpenStore(cfg.Dir, cfg.LRU)
	if err != nil {
		return nil, err
	}
	budget := cfg.MaxCells
	if budget == 0 {
		budget = cluster.DefaultMaxCells
	}
	if budget < 0 {
		budget = 0 // unlimited
	}
	return &Service{
		store:       store,
		queue:       NewQueue(store, cfg.Workers, 0, cfg.Sim, cfg.BaseContext),
		cluster:     cfg.Cluster,
		shed:        cluster.NewAdmission(budget, "/v1/grids", "/v1/sweeps"),
		version:     cfg.Version,
		logger:      cfg.Logger,
		started:     time.Now(),
		traces:      newTraceRing(),
		readyReason: "starting",
	}, nil
}

// Do answers one spec. On a single node this is exactly Queue.Do; on a
// cluster member the canonical key is routed first — keys this node
// owns (and every replicated hot entry) are answered locally, misses
// on another member's shard are forwarded to the owner so identical
// submissions entering anywhere in the fleet singleflight onto one
// simulation. A dead owner degrades to local compute: the answer is
// byte-identical either way, only the forward-error counter moves.
func (sv *Service) Do(ctx context.Context, s spec.Spec) (Result, error) {
	return sv.do(ctx, s, false)
}

// DoLocal answers one spec on this node regardless of ring ownership —
// the path forwarded peer requests take, so a forward can never loop
// even while two nodes momentarily disagree about the member list.
func (sv *Service) DoLocal(ctx context.Context, s spec.Spec) (Result, error) {
	return sv.do(ctx, s, true)
}

func (sv *Service) do(ctx context.Context, s spec.Spec, local bool) (Result, error) {
	s, key, err := prepare(s)
	if err != nil {
		return Result{}, err
	}
	if sv.cluster == nil || local {
		return sv.queue.do(ctx, s, key)
	}
	at := traceFrom(ctx)
	routeStart := time.Now()
	owner, remote := sv.cluster.Route(key)
	if !remote {
		at.span("route", routeStart, "local shard")
		return sv.queue.do(ctx, s, key)
	}
	at.span("route", routeStart, "owner "+owner)
	// A replicated hot entry (or an earlier local-fallback compute)
	// answers without a network hop.
	getStart := time.Now()
	if data, ok, err := sv.store.Get(key); err == nil && ok {
		if run, derr := decodeRun(data); derr == nil {
			at.span("store_get", getStart, "replicated hit")
			return Result{Key: key, Data: data, Run: run, Cached: true}, nil
		}
	}
	at.span("store_get", getStart, "miss")
	fwdStart := time.Now()
	fwd, err := sv.cluster.Forward(ctx, owner, s.JSON(), TraceID(ctx))
	// Each fallback to local compute below reads the store again in
	// queue.do: a result may land (replicated, or computed here for
	// another request) while a forward fails.
	if err != nil {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		if errors.Is(err, cluster.ErrBreakerOpen) {
			// The owner's breaker is open: skip straight to local compute
			// without having paid the dial/retry tax. A skip is counted on
			// the breaker, not as a forward error.
			at.span("forward", fwdStart, "breaker open, computing locally")
			return sv.queue.do(ctx, s, key)
		}
		// Owner unreachable: a dead peer costs a local simulation,
		// never a failed stream. The forward error is already on the
		// cluster counters (cluster_forward_error) and the breaker.
		at.span("forward", fwdStart, "error, degrading to local: "+err.Error())
		return sv.queue.do(ctx, s, key)
	}
	run, derr := decodeRun(fwd.Data)
	if derr != nil {
		// A peer that answers garbage degrades exactly like a dead one —
		// and Suspect feeds the breaker, so a peer that keeps doing it
		// trips open despite its "successful" HTTP exchanges.
		sv.cluster.Suspect(owner)
		at.span("forward", fwdStart, "unreadable answer, degrading to local")
		return sv.queue.do(ctx, s, key)
	}
	at.span("forward", fwdStart, owner+" "+fwd.Disposition)
	at.setRemote(owner, fwd.RemoteSpans)
	remStart := time.Now()
	sv.store.Remember(key, fwd.Data)
	sv.cluster.Replicate()
	at.span("replicate", remStart, "")
	return Result{
		Key:    key,
		Data:   fwd.Data,
		Run:    run,
		Remote: owner,
		Cached: fwd.Disposition == CacheHit,
		Shared: fwd.Disposition == CacheJoin,
	}, nil
}

// SetReady flips the /readyz gate. serve marks the node ready once the
// listener and ring are up, and not-ready (reason "draining") when
// shutdown begins.
func (sv *Service) SetReady(ready bool, reason string) {
	sv.readyMu.Lock()
	sv.ready, sv.readyReason = ready, reason
	sv.readyMu.Unlock()
}

// Ready reports the /readyz gate and, when not ready, why.
func (sv *Service) Ready() (bool, string) {
	sv.readyMu.Lock()
	defer sv.readyMu.Unlock()
	return sv.ready, sv.readyReason
}

// ClusterStats snapshots the cluster counters (nil when single-node).
func (sv *Service) ClusterStats() *cluster.Stats {
	if sv.cluster == nil {
		return nil
	}
	st := sv.cluster.Stats()
	return &st
}

// ShedStats snapshots the streamed-cell admission gate.
func (sv *Service) ShedStats() cluster.AdmissionStats { return sv.shed.Stats() }

// Drain blocks until every in-flight job has finished (or ctx fires);
// see Queue.Drain.
func (sv *Service) Drain(ctx context.Context) error { return sv.queue.Drain(ctx) }

// Job returns one job's status snapshot.
func (sv *Service) Job(id string) (JobStatus, bool) { return sv.queue.Job(id) }

// Jobs snapshots every retained job in creation order.
func (sv *Service) Jobs() []JobStatus { return sv.queue.Jobs() }

// StoreStats snapshots the store counters.
func (sv *Service) StoreStats() StoreStats { return sv.store.Stats() }

// QueueStats snapshots the queue counters.
func (sv *Service) QueueStats() QueueStats { return sv.queue.Stats() }

// StreamGrid is the cached counterpart of harness.Experiment.StreamGrid:
// it yields the same cells in the same presentation order as they
// finish, but each cell is content-addressed by its CellSpec, so cells
// already in the store are served instantly, identical concurrent cells
// are singleflighted, and fresh cells land in the store for next time.
// Collecting the stream is byte-identical to the harness path.
func (sv *Service) StreamGrid(ctx context.Context, e harness.Experiment, network string) iter.Seq2[harness.CellResult, error] {
	cells := e.Cells(network)
	// One goroutine per cell: actual simulation concurrency is bounded
	// by the queue's slot pool, and slot-waiting goroutines are cheap.
	return parallel.Stream(ctx, len(cells), len(cells), func(i int) (harness.CellResult, error) {
		res, err := sv.Do(ctx, e.CellSpec(cells[i]))
		if err != nil {
			return harness.CellResult{}, err
		}
		return harness.CellResult{Cell: cells[i], Best: res.Run}, nil
	})
}

// StreamPoints is the cached counterpart of
// harness.Experiment.StreamPoints: sweep points stream in spec order as
// they finish, each answered through the store and queue.
func (sv *Service) StreamPoints(ctx context.Context, pts []harness.PointSpec) iter.Seq2[harness.SweepPoint, error] {
	return parallel.Stream(ctx, len(pts), len(pts), func(i int) (harness.SweepPoint, error) {
		res, err := sv.Do(ctx, pts[i].Spec)
		if err != nil {
			return harness.SweepPoint{}, err
		}
		return pts[i].Result(res.Run), nil
	})
}
