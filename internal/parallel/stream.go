package parallel

import (
	"context"
	"iter"
	"sync"
	"sync/atomic"
)

// Stream evaluates fn(0) .. fn(n-1) across at most workers goroutines and
// yields the results in index order as they become ready, so a consumer
// sees live progress while later jobs are still running. The yielded
// sequence is independent of the worker count and of goroutine
// scheduling; Map collects it into a slice.
//
// Yielding stops after the first (lowest-index) error — indexes are
// claimed in increasing order, so by the time any job fails, every
// lower-indexed job has already started and will deliver its own result
// first. Breaking out of the loop, or cancelling ctx, stops new jobs
// from being claimed; jobs already in flight run to completion (a
// simulation cannot be interrupted mid-event) before Stream returns
// control. On cancellation the iterator yields one final (zero,
// ctx.Err()) pair for any job whose result it no longer has.
func Stream[T any](ctx context.Context, workers, n int, fn func(int) (T, error)) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		if n <= 0 {
			return
		}
		if ctx == nil {
			ctx = context.Background()
		}
		if workers = Workers(workers); workers > n {
			workers = n
		}
		if workers == 1 {
			for i := 0; i < n; i++ {
				if err := ctx.Err(); err != nil {
					var zero T
					yield(zero, err)
					return
				}
				v, err := fn(i)
				if !yield(v, err) || err != nil {
					return
				}
			}
			return
		}

		var (
			mu   sync.Mutex
			cond = sync.NewCond(&mu)
			vals = make([]T, n)
			errs = make([]error, n)
			done = make([]bool, n)
			next atomic.Int64
			stop atomic.Bool
		)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for !stop.Load() && ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					v, err := fn(i)
					mu.Lock()
					vals[i], errs[i], done[i] = v, err, true
					if err != nil {
						stop.Store(true)
					}
					cond.Broadcast()
					mu.Unlock()
				}
			}()
		}
		// The consumer blocks on cond; wake it when the context fires.
		finished := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				mu.Lock()
				cond.Broadcast()
				mu.Unlock()
			case <-finished:
			}
		}()
		defer func() {
			stop.Store(true)
			close(finished)
			wg.Wait()
		}()

		for i := 0; i < n; i++ {
			mu.Lock()
			for !done[i] && ctx.Err() == nil {
				cond.Wait()
			}
			ready := done[i]
			v, err := vals[i], errs[i]
			mu.Unlock()
			if !ready {
				var zero T
				yield(zero, ctx.Err())
				return
			}
			if !yield(v, err) || err != nil {
				return
			}
		}
	}
}
