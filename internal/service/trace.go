package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"
)

// Request tracing: every HTTP request gets a trace ID (generated at the
// entry node or accepted from the X-Tsnoop-Trace request header on a
// cluster forward), the service layers record wall-clock phase spans
// into the request's trace as it moves through them, and finished
// traces land in a bounded in-memory ring exposed on GET /v1/traces and
// GET /v1/traces/{id}. When a request is forwarded to its owning peer,
// the owner ships its own span list back in a response header, so the
// entry node's trace shows both sides of the hop.
//
// This is wall-clock observability of the HTTP layer only — like the
// /metrics counters it never touches the simulator, whose lifecycle
// spans live in internal/obs and simulated time.

// traceKeep bounds the retained finished-trace history per node.
const traceKeep = 256

// TraceSpan is one wall-clock phase of a request's life on one node.
// Starts are microsecond offsets from the trace's start, so a span list
// is meaningful without the absolute clock.
type TraceSpan struct {
	Name string `json:"name"`
	// StartUS is the span's start in microseconds after the trace's
	// start. It is negative for the phases of a joined job that began
	// before this request arrived.
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Note    string `json:"note,omitempty"`
}

// Trace is the recorded life of one request on one node — what
// GET /v1/traces/{id} returns.
type Trace struct {
	ID string `json:"id"`
	// Node is this node's ring address; empty on a single-node service.
	Node   string    `json:"node,omitempty"`
	Method string    `json:"method"`
	Path   string    `json:"path"`
	Route  string    `json:"route"`
	Status int       `json:"status"`
	Start  time.Time `json:"start"`
	DurUS  int64     `json:"dur_us"`
	// Spans are this node's phases in recording order.
	Spans []TraceSpan `json:"spans,omitempty"`
	// RemotePeer and RemoteSpans are the owning peer's side of a
	// forwarded request, shipped back in the X-Tsnoop-Trace-Spans
	// response header and embedded here by the entry node.
	RemotePeer  string      `json:"remote_peer,omitempty"`
	RemoteSpans []TraceSpan `json:"remote_spans,omitempty"`
}

// activeTrace is a trace under construction, carried through the
// request context. Span recording is mutex-guarded: streamed requests
// fan cells across goroutines that all hold the same request context.
type activeTrace struct {
	mu    sync.Mutex
	start time.Time
	tr    Trace
}

func newActiveTrace(id, node string, method, path string, start time.Time) *activeTrace {
	return &activeTrace{
		start: start,
		tr:    Trace{ID: id, Node: node, Method: method, Path: path, Start: start.UTC()},
	}
}

// span records one phase that started at start and just ended.
func (a *activeTrace) span(name string, start time.Time, note string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.Spans = append(a.tr.Spans, TraceSpan{
		Name:    name,
		StartUS: start.Sub(a.start).Microseconds(),
		DurUS:   time.Since(start).Microseconds(),
		Note:    note,
	})
	a.mu.Unlock()
}

// jobPhases adds a job's ended phases to the trace at their exact
// offsets from the trace's start. A joined job's early phases may
// predate this request, so their offsets can be negative.
func (a *activeTrace) jobPhases(jobID string, j *job) {
	if a == nil {
		return
	}
	spans := j.phases(a.start)
	for i := range spans {
		spans[i].Note = "job " + jobID
	}
	a.mu.Lock()
	a.tr.Spans = append(a.tr.Spans, spans...)
	a.mu.Unlock()
}

// setRemote attaches the owning peer's span list (the JSON value of the
// X-Tsnoop-Trace-Spans response header) to a forwarded request's trace.
// An unparsable header is dropped — remote spans are best-effort
// decoration, never a reason to fail a forward that already succeeded.
func (a *activeTrace) setRemote(peer, spansJSON string) {
	if a == nil || spansJSON == "" {
		return
	}
	var spans []TraceSpan
	if json.Unmarshal([]byte(spansJSON), &spans) != nil {
		return
	}
	a.mu.Lock()
	a.tr.RemotePeer, a.tr.RemoteSpans = peer, spans
	a.mu.Unlock()
}

// spansJSON renders this node's span list for the response header an
// owner sends back to the forwarding entry node.
func (a *activeTrace) spansJSON() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.tr.Spans) == 0 {
		return ""
	}
	data, err := json.Marshal(a.tr.Spans)
	if err != nil {
		return ""
	}
	return string(data)
}

// finish seals the trace with the response outcome and returns it.
func (a *activeTrace) finish(route string, status int, dur time.Duration) Trace {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tr.Route, a.tr.Status, a.tr.DurUS = route, status, dur.Microseconds()
	return a.tr
}

type traceCtxKey struct{}

// withTrace attaches an active trace to a request context.
func withTrace(ctx context.Context, a *activeTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, a)
}

// traceFrom returns the request's active trace, or nil outside an
// instrumented request (direct library use, tests, the -cache CLI path).
// Every recording helper accepts the nil receiver, so call sites never
// branch.
func traceFrom(ctx context.Context) *activeTrace {
	a, _ := ctx.Value(traceCtxKey{}).(*activeTrace)
	return a
}

// TraceID reports the request's trace ID, empty outside an instrumented
// request. The queue stamps it onto jobs so GET /v1/jobs/{id} links
// back to the submitting request's trace.
func TraceID(ctx context.Context) string {
	a := traceFrom(ctx)
	if a == nil {
		return ""
	}
	return a.tr.ID
}

// newTraceID returns a fresh 16-hex-character request trace ID.
func newTraceID() string {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails post-Go 1.24
	return hex.EncodeToString(b[:])
}

// traceRing retains the last traceKeep finished traces, evicting oldest.
type traceRing struct {
	mu   sync.Mutex
	list []Trace        // creation order, oldest first
	byID map[string]int // id -> index in list
}

func newTraceRing() *traceRing {
	return &traceRing{byID: make(map[string]int)}
}

func (r *traceRing) add(tr Trace) {
	r.mu.Lock()
	if len(r.list) == traceKeep {
		delete(r.byID, r.list[0].ID)
		copy(r.list, r.list[1:])
		r.list = r.list[:traceKeep-1]
		for id, i := range r.byID {
			r.byID[id] = i - 1
		}
	}
	// A forwarded retry can reuse an ID; latest record wins the index.
	r.byID[tr.ID] = len(r.list)
	r.list = append(r.list, tr)
	r.mu.Unlock()
}

// get returns one trace by ID.
func (r *traceRing) get(id string) (Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byID[id]
	if !ok {
		return Trace{}, false
	}
	return r.list[i], true
}

// all snapshots the retained traces, newest first.
func (r *traceRing) all() []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, len(r.list))
	for i, tr := range r.list {
		out[len(r.list)-1-i] = tr
	}
	return out
}
