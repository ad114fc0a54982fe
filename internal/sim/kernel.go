package sim

import (
	"fmt"

	"tsnoop/internal/obs"
)

// EventFn is the event callback: a plain function (no closure) invoked
// with the arguments captured at scheduling time. Every event is typed,
// so the steady state allocates nothing: a package-level EventFn value,
// pointer receivers boxed in `any` (pointer interfaces do not allocate),
// and one scalar slot cover every case.
type EventFn func(a0, a1 any, i0 int64)

// event is a scheduled callback, stored inline in the kernel's heap or
// one of its lanes (no interface boxing, no per-event allocation). On
// 64-bit platforms it is 64 bytes, one cache line.
type event struct {
	at     Time
	seq    uint64 // insertion order; breaks ties deterministically (FIFO)
	fn     EventFn
	a0, a1 any
	i0     int64
}

// Kernel is a deterministic discrete-event scheduler. The zero value is
// ready to use at time zero.
//
// Pending events live in two kinds of queue, and dispatch always takes
// the minimum by (at, seq) across all of them:
//
//   - A hand-rolled 4-ary min-heap of inline event values, for events
//     scheduled at an arbitrary distance. A 4-ary heap halves the tree
//     depth of a binary heap and keeps a sift-down's children adjacent
//     in memory, and holding events by value avoids the per-operation
//     interface boxing that container/heap imposes.
//   - One FIFO lane per fixed delay declared with DeclareDelay. An event
//     scheduled exactly that far ahead (t - Now() == d, through AtCall
//     or AfterCall) is appended to the lane in O(1) instead of being
//     sifted into the heap.
//
// The lanes change no dispatch order. Now never decreases and seq
// always increases, so events pushed onto one lane carry nondecreasing
// times (now + d) and increasing seqs: every lane is already sorted by
// (at, seq), its head is its minimum, and merging the lane heads with
// the heap top dispatches exactly the sequence the heap alone would.
// A kernel with no declared delays is that heap alone, and the tests
// keep it as the lanes' oracle. Timestamp snooping's tokens, per-hop
// transaction transits and ordered handoffs all travel fixed-latency
// links, so nearly every event of a TS-Snoop run takes a lane.
type Kernel struct {
	now    Time
	seq    uint64
	events []event
	lanes  []lane
	// executed counts dispatched events; useful for progress accounting
	// and loop-detection in tests.
	executed uint64
	// probe is the optional telemetry hook (nil = zero overhead beyond
	// one predictable branch per schedule/dispatch). It records dispatch
	// counts, schedule distances, and the pending-event high-water mark
	// — all derived from simulated time, never wall clock.
	probe *obs.Probe
}

// lane queues the pending events scheduled exactly d after their
// scheduling time, in (at, seq) order.
type lane struct {
	d Duration
	q FIFO[event]
}

// SetProbe attaches (or, with nil, detaches) the telemetry probe.
func (k *Kernel) SetProbe(p *obs.Probe) { k.probe = p }

// NewKernel returns a kernel whose clock starts at zero.
func NewKernel() *Kernel { return &Kernel{} }

// DeclareDelay gives the fixed delay d its own FIFO lane: from now on,
// events scheduled exactly d ahead skip the heap. Declaring a delay
// twice is a no-op, and a declaration may come at any time — it changes
// where events wait, never the order they dispatch in. Each lane adds a
// comparison to every dispatch, so declare only the few delays that
// carry most of the traffic. Negative delays panic.
func (k *Kernel) DeclareDelay(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative fixed delay %v", d))
	}
	if k.lane(d) == nil {
		k.lanes = append(k.lanes, lane{d: d})
	}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of scheduled-but-not-yet-dispatched events.
func (k *Kernel) Pending() int {
	n := len(k.events)
	for i := range k.lanes {
		n += k.lanes[i].q.Len()
	}
	return n
}

// less orders events by (at, seq); seq is unique, so this is a strict
// total order and dispatch is deterministic regardless of heap shape.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// schedule stamps e with the next seq and queues it: onto the lane of
// its delay when one is declared, otherwise into the heap.
func (k *Kernel) schedule(e event) {
	d := e.at - k.now
	k.seq++
	e.seq = k.seq
	if q := k.lane(d); q != nil {
		q.Push(e)
	} else {
		k.push(e)
	}
	if p := k.probe; p != nil {
		p.ScheduleDelay(int64(d))
		p.PendingDepth(k.Pending())
	}
}

// lane returns the FIFO of declared delay d, or nil.
func (k *Kernel) lane(d Duration) *FIFO[event] {
	for i := range k.lanes {
		if k.lanes[i].d == d {
			return &k.lanes[i].q
		}
	}
	return nil
}

// push inserts e, sifting up through the 4-ary heap.
func (k *Kernel) push(e event) {
	h := append(k.events, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	k.events = h
}

// popMin removes and returns the heap's earliest event. The caller must
// have checked that the heap is non-empty. The vacated tail slot is
// zeroed so the heap's backing array does not retain references to dead
// callbacks and payloads.
func (k *Kernel) popMin() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	k.events = h
	// Sift down: swap with the smallest of up to four children.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[min]) {
				min = j
			}
		}
		if !less(&h[min], &h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// next finds the earliest pending event: the heap top or a lane head.
// It returns nil when nothing is pending; from is the lane index, or -1
// for the heap.
func (k *Kernel) next() (e *event, from int) {
	from = -1
	if len(k.events) > 0 {
		e = &k.events[0]
	}
	for i := range k.lanes {
		q := &k.lanes[i].q
		if q.Len() == 0 {
			continue
		}
		if h := q.Front(); e == nil || less(h, e) {
			e, from = h, i
		}
	}
	return e, from
}

// dispatch removes the earliest event from the queue next chose,
// advances the clock to it and runs it.
func (k *Kernel) dispatch(from int) {
	var e event
	if from < 0 {
		e = k.popMin()
	} else {
		e = k.lanes[from].q.Pop()
	}
	k.now = e.at
	k.executed++
	if p := k.probe; p != nil {
		p.Dispatch()
	}
	e.fn(e.a0, e.a1, e.i0)
}

// AtCall schedules the event fn(a0, a1, i0) at absolute time t. Nothing
// here allocates at steady state: fn should be a package-level function,
// a0/a1 pointers (pointer-to-any conversions do not allocate), and i0
// any scalar payload. Scheduling in the past (t less than Now) panics:
// it would silently corrupt causality.
func (k *Kernel) AtCall(t Time, fn EventFn, a0, a1 any, i0 int64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.schedule(event{at: t, fn: fn, a0: a0, a1: a1, i0: i0})
}

// AfterCall schedules the event fn(a0, a1, i0) d picoseconds from
// now. Negative delays panic.
func (k *Kernel) AfterCall(d Duration, fn EventFn, a0, a1 any, i0 int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtCall(k.now+d, fn, a0, a1, i0)
}

// Step dispatches the single earliest event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (k *Kernel) Step() bool {
	e, from := k.next()
	if e == nil {
		return false
	}
	k.dispatch(from)
	return true
}

// Run dispatches events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil dispatches events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain pending.
func (k *Kernel) RunUntil(t Time) {
	for {
		e, from := k.next()
		if e == nil || e.at > t {
			break
		}
		k.dispatch(from)
	}
	if t > k.now {
		k.now = t
	}
}

// RunWhile dispatches events while cond() holds and events remain. It is
// the main loop used by the harness ("run until every processor has
// finished its quota").
func (k *Kernel) RunWhile(cond func() bool) {
	for cond() && k.Step() {
	}
}
