// Fixture for the allocfree analyzer: tsnoop/internal/tsnet is a
// hot-path package, so func literals passed to AtCall/AfterCall, boxing
// into their any arguments, and map traffic reachable from event
// dispatch are all diagnostics here.
package tsnet

import "tsnoop/internal/sim"

type node struct {
	k *sim.Kernel
	m map[int]int
}

type payload struct{ a, b int }

// handler is scheduled through AtCall below, so it and everything it
// statically calls is dispatch-reachable.
func handler(a0, a1 any, i0 int64) {
	n := a0.(*node)
	n.m = make(map[int]int) // want `map allocated in handler`
	for range n.m {         // want `map iteration in handler`
	}
	helper(n)
}

func helper(n *node) {
	n.m = map[int]int{1: 2} // want `map literal allocated in helper`
}

func schedule(n *node, p *payload, done func()) {
	n.k.AtCall(0, handler, func() {}, nil, 0)                  // want `func literal passed to Kernel.AtCall allocates a closure per event`
	n.k.AfterCall(1, handler, n, func() {}, 0)                 // want `func literal passed to Kernel.AfterCall allocates a closure per event`
	n.k.AfterCall(1, func(a0, a1 any, i0 int64) {}, n, nil, 0) // want `func literal passed to Kernel.AfterCall allocates a closure per event`
	n.k.AfterCall(1, handler, n, done, 0)
	n.k.AtCall(0, handler, n, nil, 0)
	n.k.AfterCall(1, handler, *p, nil, 0) // want `AfterCall boxes a tsnoop/internal/tsnet.payload`
	n.k.AfterCall(1, handler, nil, 42, 0) // want `AfterCall boxes a int`
	n.k.AfterCall(1, handler, p, nil, int64(p.a+p.b))
}

// scheduledClosure's map range runs on the dispatch path even though it
// reaches it through a (flagged) closure argument.
func scheduledClosure(n *node) {
	n.k.AtCall(0, handler, n, func() { // want `func literal passed to Kernel.AtCall allocates a closure per event`
		for range n.m { // want `map iteration in a scheduled closure`
		}
	}, 0)
}

// setup is not reachable from any scheduled event: construction-time
// map allocation and iteration are fine.
func setup(n *node) {
	n.m = make(map[int]int)
	for range n.m {
	}
}
