package sim

import (
	"testing"
	"testing/quick"

	"tsnoop/internal/obs"
)

// countEvent is the package-level EventFn used by the allocation tests:
// typed events must never force a closure.
func countEvent(a0, a1 any, i0 int64) {
	*(a0.(*int)) += int(i0)
}

func TestKernelTypedEvents(t *testing.T) {
	k := NewKernel()
	sum := 0
	k.AtCall(30, countEvent, &sum, nil, 3)
	k.AtCall(10, countEvent, &sum, nil, 1)
	k.AfterCall(20, countEvent, &sum, nil, 2)
	order := []int{}
	k.At(10, func() { order = append(order, sum) }) // after the typed event at 10? no: FIFO at same time
	k.Run()
	if sum != 6 {
		t.Fatalf("sum = %d, want 6", sum)
	}
	// The closure at t=10 was scheduled after the typed event at t=10, so
	// FIFO tie-breaking runs it second and it observes sum == 1.
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("closure observed sum %v, want [1]", order)
	}
}

// TestKernelAllocs pins the allocation-free steady state: scheduling and
// dispatching a typed event must not allocate, and neither must a
// non-capturing closure (no interface boxing anywhere in the heap).
func TestKernelAllocs(t *testing.T) {
	k := NewKernel()
	sum := 0
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		k.AfterCall(Duration(i), countEvent, &sum, nil, 1)
	}
	k.Run()

	if a := testing.AllocsPerRun(1000, func() {
		k.AfterCall(1, countEvent, &sum, nil, 1)
		k.Step()
	}); a != 0 {
		t.Errorf("typed event schedule+dispatch allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		k.After(1, func() {})
		k.Step()
	}); a != 0 {
		t.Errorf("non-capturing closure schedule+dispatch allocates %v/op, want 0", a)
	}
	laneAllocs(t, k, &sum, "")
}

// laneAllocs pins the fixed-delay lane path of k at 0 allocs/op: once a
// lane's ring has grown to its peak, scheduling onto it and dispatching
// from it (mixed with heap events) allocates nothing.
func laneAllocs(t *testing.T, k *Kernel, sum *int, what string) {
	t.Helper()
	k.DeclareDelay(15)
	for i := 0; i < 64; i++ {
		k.AfterCall(15, countEvent, sum, nil, 1)
		k.AfterCall(Duration(i), countEvent, sum, nil, 1)
	}
	k.Run()
	if a := testing.AllocsPerRun(1000, func() {
		k.AfterCall(15, countEvent, sum, nil, 1)
		k.AfterCall(3, countEvent, sum, nil, 1)
		k.Step()
		k.Step()
	}); a != 0 {
		t.Errorf("%slane+heap typed event schedule+dispatch allocates %v/op, want 0", what, a)
	}
}

// TestKernelAllocsWithProbe pins the probes-on budget: the telemetry
// probe's counters and fixed-bucket histograms are pure integer
// arithmetic over preallocated storage, so an instrumented kernel
// still schedules and dispatches without allocating.
func TestKernelAllocsWithProbe(t *testing.T) {
	k := NewKernel()
	k.SetProbe(obs.NewProbe())
	sum := 0
	for i := 0; i < 64; i++ {
		k.AfterCall(Duration(i), countEvent, &sum, nil, 1)
	}
	k.Run()

	if a := testing.AllocsPerRun(1000, func() {
		k.AfterCall(1, countEvent, &sum, nil, 1)
		k.Step()
	}); a != 0 {
		t.Errorf("instrumented typed event schedule+dispatch allocates %v/op, want 0", a)
	}
	laneAllocs(t, k, &sum, "instrumented ")
}

// Property: the hand-rolled 4-ary heap dispatches any interleaving of
// pushes and pops in exact (at, seq) order, including duplicates and
// events scheduled from inside events.
func TestKernelHeapOrderProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		k := NewKernel()
		var fired []Time
		var record EventFn
		record = func(a0, a1 any, i0 int64) {
			fired = append(fired, k.Now())
			if i0 > 0 { // nested scheduling from inside a typed event
				k.AfterCall(Duration(i0), record, nil, nil, 0)
			}
		}
		want := 0
		for i, v := range raw {
			k.AtCall(Time(v), record, nil, nil, int64(i%3))
			want++
			if i%3 != 0 {
				want++
			}
		}
		k.Run()
		if len(fired) != want {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Same-time typed and closure events must interleave strictly FIFO.
func TestKernelMixedFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	push := func(a0, a1 any, i0 int64) {
		p := a0.(*[]int)
		*p = append(*p, int(i0))
	}
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			k.AtCall(50, EventFn(push), &order, nil, int64(i))
		} else {
			i := i
			k.At(50, func() { order = append(order, i) })
		}
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed same-time events not FIFO: %v", order)
		}
	}
}
