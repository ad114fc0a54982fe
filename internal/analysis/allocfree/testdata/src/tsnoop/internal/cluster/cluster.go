// Fixture for the allocfree analyzer's cluster coverage: the package
// path is inside the hot set, so any future coupling to the kernel's
// scheduling API inherits the zero-alloc contract — a scheduled func
// literal is flagged here exactly as it would be in the simulator.
package cluster

import "tsnoop/internal/sim"

func replicate(k *sim.Kernel) {
	k.AfterCall(1, func(a0, a1 any, i0 int64) {}, nil, nil, 0) // want `func literal passed to Kernel.AfterCall`
}

// Plain code that never touches the kernel is not the analyzer's
// business, maps and all.
func route(counters map[string]int64) int64 {
	var total int64
	for _, v := range counters {
		total += v
	}
	return total
}
