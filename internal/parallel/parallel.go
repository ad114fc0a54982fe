// Package parallel provides the deterministic worker-pool primitive
// behind the experiment engine: jobs are indexed, fan out across a
// bounded set of goroutines, and results are collected in index order, so
// a parallel run renders byte-identically to a serial one. Simulations
// are safe to fan out because every job builds its own kernel, RNG, and
// system; the pool only supplies scheduling and ordered collection.
package parallel

import (
	"context"
	"runtime"
)

// Workers normalizes a worker-count knob: values below 1 mean one worker
// per CPU.
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// Map evaluates fn(0) .. fn(n-1) across at most workers goroutines and
// returns the results in index order. workers below 1 uses one worker per
// CPU; one worker degenerates to a plain serial loop. Map is a collector
// over Stream and shares its contract: on failure it returns the error
// from the lowest failing index and a nil slice, and jobs not yet
// claimed are skipped.
func Map[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, 0, n)
	for v, err := range Stream(context.Background(), workers, n, fn) {
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
