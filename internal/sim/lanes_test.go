package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"tsnoop/internal/obs"
)

// TestFIFORingBounded pins the ring's space bound: a queue that never
// drains — a token lane — must reuse its slots instead of growing with
// every push, and steady-state push/pop must not allocate.
func TestFIFORingBounded(t *testing.T) {
	var f FIFO[int]
	next, want := 0, 0
	for i := 0; i < 63; i++ {
		f.Push(next)
		next++
	}
	for i := 0; i < 1_000_000; i++ { // occupancy cycles 63 -> 64 -> 63
		f.Push(next)
		next++
		if v := f.Pop(); v != want {
			t.Fatalf("pop %d = %d, want %d", i, v, want)
		}
		want++
	}
	if f.Cap() > 128 {
		t.Fatalf("after 1M push/pop pairs at occupancy <= 64: cap %d, want <= 128", f.Cap())
	}
	if a := testing.AllocsPerRun(1000, func() {
		f.Push(next)
		next++
		f.Pop()
	}); a != 0 {
		t.Errorf("steady-state push+pop allocates %v/op, want 0", a)
	}
}

// TestFIFOWrapOrder checks FIFO order across wrap-around and growth
// with the contents wrapped.
func TestFIFOWrapOrder(t *testing.T) {
	var f FIFO[int]
	want := 0
	next := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%13+1; i++ {
			f.Push(next)
			next++
		}
		for i := 0; i < round%7 && f.Len() > 0; i++ {
			if got := *f.Front(); got != want {
				t.Fatalf("Front = %d, want %d", got, want)
			}
			if got := f.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for f.Len() > 0 {
		if got := f.Pop(); got != want {
			t.Fatalf("drain Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d of %d pushed", want, next)
	}
	if c := f.Cap(); c&(c-1) != 0 {
		t.Fatalf("Cap %d is not a power of two", c)
	}
}

// diffDelays is the delay mix of the differential test: the declared
// lane delays (diffDeclared, plus 5 declared mid-run) and off-lane ones.
var diffDelays = []Duration{0, 1, 3, 5, 15, 15, 15, 40}

var diffDeclared = []Duration{0, 15}

// diffRec is one dispatch of the differential test: its time, its seq,
// which EventFn ran (0 diffTyped, 1 diffOther, 2 diffParts), its
// argument, and for diffParts which part of the event ran.
type diffRec struct {
	at   Time
	seq  uint64
	fn   int
	i0   int64
	part int
}

// diffRun drives one kernel through a scripted, self-extending event
// program. Every decision is a hash of an event's own id, so two kernels
// that dispatch the same trace make the same decisions.
type diffRun struct {
	k       *Kernel
	trace   []diffRec
	pending []int // Pending() after each driver op
	ids     int64
	budget  int
	seqOK   bool
	parts   map[int64]int // parts run so far per diffParts event
	split   int           // driver ops that ended between two parts
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func diffTyped(a0, a1 any, i0 int64) { a0.(*diffRun).fire(0, i0) }

func diffOther(a0, a1 any, i0 int64) { a0.(*diffRun).fire(1, i0) }

// diffParts runs in one to three parts, resuming itself with Again.
func diffParts(a0, a1 any, i0 int64) { a0.(*diffRun).firePart(i0) }

// schedule queues event number ids+1 d ahead, through one of the two
// scheduling entry points and one of the three EventFns picked by how;
// the test's ids mirror the kernel's seq, which is checked here.
func (r *diffRun) schedule(d Duration, how uint64) {
	r.ids++
	id := r.ids
	k := r.k
	switch how % 6 {
	case 0:
		k.AfterCall(d, diffTyped, r, nil, id)
	case 1:
		k.AtCall(k.Now()+d, diffTyped, r, nil, id)
	case 2:
		k.AfterCall(d, diffOther, r, nil, id)
	case 3:
		k.AtCall(k.Now()+d, diffOther, r, nil, id)
	case 4:
		k.AfterCall(d, diffParts, r, nil, id)
	case 5:
		k.AtCall(k.Now()+d, diffParts, r, nil, id)
	}
	if k.seq != uint64(id) {
		r.seqOK = false
	}
}

// fire records a dispatch and schedules up to two children from inside
// the event.
func (r *diffRun) fire(fn int, id int64) {
	r.trace = append(r.trace, diffRec{at: r.k.Now(), seq: uint64(id), fn: fn, i0: id})
	r.children(mix(uint64(id)))
}

// children schedules up to two events, as the hash h decides.
func (r *diffRun) children(h uint64) {
	for c := uint64(0); c < h%3 && r.budget > 0; c++ {
		h = mix(h)
		r.budget--
		r.schedule(diffDelays[h%uint64(len(diffDelays))], h>>8)
	}
}

// firePart records one part of a diffParts event, schedules its
// children, and resumes the event while parts remain.
func (r *diffRun) firePart(id int64) {
	part := r.parts[id]
	r.parts[id] = part + 1
	r.trace = append(r.trace, diffRec{at: r.k.Now(), seq: uint64(id), fn: 2, i0: id, part: part})
	h := mix(uint64(id) ^ uint64(part)<<48)
	r.children(h)
	if part < int(mix(uint64(id))%3) {
		r.k.Again()
	}
}

// runDiff executes the program (seed, ops) on a fresh kernel, with the
// fixed delays declared or not, and returns the run and its kernel
// telemetry.
func runDiff(declare bool, seed uint64, ops []uint16) (*diffRun, obs.KernelMetrics) {
	k := NewKernel()
	probe := obs.NewProbe()
	k.SetProbe(probe)
	r := &diffRun{k: k, budget: 600, seqOK: true, parts: map[int64]int{}}
	if declare {
		for _, d := range diffDeclared {
			k.DeclareDelay(d)
		}
	}
	for i, op := range ops {
		h := mix(seed ^ uint64(i)<<32 ^ uint64(op))
		switch op % 6 {
		case 0, 1, 2: // schedule from outside any event
			r.schedule(diffDelays[h%uint64(len(diffDelays))], h>>8)
		case 3:
			k.RunUntil(k.Now() + Time(h%24))
		case 4:
			n := len(r.trace) + int(h%8)
			k.RunWhile(func() bool { return len(r.trace) < n })
		case 5:
			k.Step()
		}
		if k.resuming {
			r.split++
		}
		if declare && i == len(ops)/2 {
			k.DeclareDelay(5) // a declaration may come with events pending
		}
		r.pending = append(r.pending, k.Pending())
	}
	k.Run()
	return r, probe.Finalize(int64(k.Now())).Kernel
}

// TestKernelLanesMatchHeapOracle is the fixed-delay lanes' oracle test:
// for random programs — nested scheduling, delays on and off the
// declared set, same-time ties, events run in parts through Again,
// RunUntil/RunWhile/Step interleavings that stop between parts too, and
// a declaration made mid-run — a kernel with declared delays dispatches
// exactly the (at, seq, fn, args, part) trace of the heap-only kernel,
// reports the same Pending counts, and renders identical kernel
// telemetry (heap_peak counts lane events too).
func TestKernelLanesMatchHeapOracle(t *testing.T) {
	split := 0
	f := func(seed uint64, ops []uint16) bool {
		heap, heapM := runDiff(false, seed, ops)
		lanes, lanesM := runDiff(true, seed, ops)
		split += lanes.split
		if !heap.seqOK || !lanes.seqOK {
			t.Logf("seed %d: test ids drifted from kernel seq", seed)
			return false
		}
		if !reflect.DeepEqual(heap.trace, lanes.trace) {
			t.Logf("seed %d: dispatch traces differ (%d vs %d events)", seed, len(heap.trace), len(lanes.trace))
			return false
		}
		if !reflect.DeepEqual(heap.pending, lanes.pending) {
			t.Logf("seed %d: Pending differs: %v vs %v", seed, heap.pending, lanes.pending)
			return false
		}
		if !reflect.DeepEqual(heapM, lanesM) {
			t.Logf("seed %d: kernel metrics differ: %+v vs %+v", seed, heapM, lanesM)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if split == 0 {
		t.Error("no run loop stopped between two parts of an event")
	}
}

// TestKernelLanesCarryFixedDelays checks that declared delays actually
// bypass the heap, and undeclared ones do not.
func TestKernelLanesCarryFixedDelays(t *testing.T) {
	k := NewKernel()
	k.DeclareDelay(15)
	k.DeclareDelay(15) // idempotent
	if len(k.lanes) != 1 {
		t.Fatalf("%d lanes after declaring one delay twice, want 1", len(k.lanes))
	}
	sum := 0
	k.AfterCall(15, countEvent, &sum, nil, 1)
	k.AtCall(15, countEvent, &sum, nil, 0)
	k.AfterCall(7, countEvent, &sum, nil, 1)
	if len(k.events) != 1 || k.lanes[0].q.Len() != 2 || k.Pending() != 3 {
		t.Fatalf("heap %d, lane %d, pending %d; want 1, 2, 3", len(k.events), k.lanes[0].q.Len(), k.Pending())
	}
	k.Run()
	if sum != 2 || k.Now() != 15 || k.Pending() != 0 {
		t.Fatalf("sum %d at %v with %d pending, want 2 at 15 with 0", sum, k.Now(), k.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("declaring a negative delay did not panic")
		}
	}()
	k.DeclareDelay(-1)
}

// TestNewestOnLane checks the lane-tail accessor: it names the newest
// pending event of a declared lane by seq, across ring wrap-around and
// dispatches, and reports nothing for an empty or undeclared lane or
// for events waiting in the heap.
func TestNewestOnLane(t *testing.T) {
	k := NewKernel()
	k.DeclareDelay(15)
	if _, ok := k.NewestOnLane(15); ok {
		t.Fatal("empty lane reports a newest event")
	}
	if _, ok := k.NewestOnLane(7); ok {
		t.Fatal("undeclared delay reports a newest event")
	}
	sum := 0
	k.AfterCall(7, countEvent, &sum, nil, 1) // heap: not on any lane
	if _, ok := k.NewestOnLane(7); ok {
		t.Fatal("a heap event is reported as a lane's newest")
	}
	for i := 0; i < 100; i++ {
		k.AfterCall(15, countEvent, &sum, nil, 1)
		seq, ok := k.NewestOnLane(15)
		if !ok || seq != k.seq {
			t.Fatalf("after push %d: NewestOnLane = %d, %v; want %d, true", i, seq, ok, k.seq)
		}
		if i%3 == 2 {
			k.Step() // pop the head; the newest stays put
			if seq2, ok := k.NewestOnLane(15); !ok || seq2 != seq {
				t.Fatalf("after a dispatch: NewestOnLane = %d, %v; want %d, true", seq2, ok, seq)
			}
		}
	}
	k.AfterCall(3, countEvent, &sum, nil, 1) // a newer event elsewhere changes nothing
	if seq, _ := k.NewestOnLane(15); seq == k.seq {
		t.Fatal("an event on another queue is reported as the lane's newest")
	}
	k.Run()
	if _, ok := k.NewestOnLane(15); ok {
		t.Fatal("drained lane reports a newest event")
	}
}

// partsRun is the state of TestAgainStopsBetweenParts: the kernel, the
// dispatch log, and the parts partsEvent has left to run.
type partsRun struct {
	k    *Kernel
	log  []string
	left int
}

// partsEvent is a typed event run in parts: a0 is the *partsRun, i0 a
// label. Each part logs "label.left" and resumes while parts remain.
func partsEvent(a0, a1 any, i0 int64) {
	r := a0.(*partsRun)
	r.log = append(r.log, fmt.Sprintf("%d.%d", i0, r.left))
	if r.left > 0 {
		r.left--
		r.k.Again()
	}
}

// logEvent logs its label to the *partsRun in a0.
func logEvent(a0, a1 any, i0 int64) {
	r := a0.(*partsRun)
	r.log = append(r.log, fmt.Sprint(i0))
}

// TestAgainStopsBetweenParts pins the exact stop inside an event run in
// parts: a RunWhile whose condition turns false after a part leaves the
// rest pending at the same Now, counted by Pending but not by Executed,
// and the next RunWhile or RunUntil dispatches it first — ahead of the
// events due at the same time, scheduled before it or after the stop.
func TestAgainStopsBetweenParts(t *testing.T) {
	for _, resume := range []string{"RunWhile", "RunUntil"} {
		t.Run(resume, func(t *testing.T) {
			k := NewKernel()
			k.DeclareDelay(10)
			r := &partsRun{k: k, left: 2}
			k.AfterCall(10, partsEvent, r, nil, 1)
			k.AfterCall(10, logEvent, r, nil, 2)
			k.RunWhile(func() bool { return len(r.log) < 1 })
			if k.Now() != 10 || k.Executed() != 1 || k.Pending() != 2 {
				t.Fatalf("after the first part: now %v, executed %d, pending %d; want 10, 1, 2",
					k.Now(), k.Executed(), k.Pending())
			}
			k.AtCall(10, logEvent, r, nil, 3)
			switch resume {
			case "RunWhile":
				k.RunWhile(func() bool { return true })
			case "RunUntil":
				k.RunUntil(10)
			}
			want := []string{"1.2", "1.1", "1.0", "2", "3"}
			if fmt.Sprint(r.log) != fmt.Sprint(want) {
				t.Fatalf("dispatch order %v, want %v", r.log, want)
			}
			if k.Executed() != 3 || k.Pending() != 0 {
				t.Fatalf("executed %d, pending %d; want 3, 0", k.Executed(), k.Pending())
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Again outside a dispatch did not panic")
		}
	}()
	NewKernel().Again()
}
