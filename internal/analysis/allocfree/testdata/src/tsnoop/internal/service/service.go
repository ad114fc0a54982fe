// Fixture proving the allocfree analyzer is scoped to the hot-path
// packages: the service package passes func literals to the kernel and
// allocates maps freely without diagnostics.
package service

import "tsnoop/internal/sim"

func serve(k *sim.Kernel) {
	m := make(map[int]int)
	k.AtCall(0, func(a0, a1 any, i0 int64) {}, func() { m[1] = 2 }, nil, 0)
	k.AfterCall(1, func(a0, a1 any, i0 int64) {}, struct{}{}, nil, 0)
}
