// Package pool provides the concurrency primitives the deterministic
// parallel engine needs: a bounded fan-out over an index range with ordered
// error collection, and a shared Pool whose global token budget bounds the
// combined concurrency of many fan-outs at once (the fleet scheduler runs
// every work unit of every study through one Pool). Work units must derive
// any randomness from their index (xrand.Mix), never from shared state, so
// results are identical at every worker count.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a shared worker budget: a fixed number of execution tokens that
// every fan-out routed through the pool contends for. Concurrent fan-outs
// (e.g. the placement campaigns and clustering repetitions of many studies
// in one suite) collectively never exceed the budget, while each individual
// fan-out keeps its ordered, deterministic collection semantics.
//
// Units must not start a nested Pool.ForEach on the same pool from inside
// fn: a unit holds its token while running, so nesting can deadlock once
// every token is held by a waiting parent.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool with the given token budget (0 means GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's token budget.
func (p *Pool) Workers() int { return cap(p.sem) }

// ForEach invokes fn(i) for every i in [0, n), each unit first acquiring
// one of the pool's tokens, with the same error and cancellation semantics
// as Dispatch. Results do not depend on the budget or on what else runs
// on the pool concurrently.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	return forEach(ctx, n, cap(p.sem), p.sem, fn)
}

// Dispatch invokes fn(i) for every i in [0, n): on budget when it is
// non-nil (every unit first acquires one of its tokens), and on a transient
// pool of workers goroutines otherwise (0 means GOMAXPROCS). A nil ctx means
// Background. It returns the error of the lowest-indexed unit that ran and
// failed, or nil. After any unit fails, dispatch stops and not-yet-started
// units never run — the caller discards all outputs on error, so the
// short-circuit cannot affect determinism of successful runs (which error
// surfaces may vary with scheduling; that an error surfaces does not). When
// ctx is cancelled, dispatch stops, in-flight units finish, and the
// context's error is returned unless a unit failed first. Results are
// collected by index, never by completion order, and do not depend on
// budget or workers.
func Dispatch(ctx context.Context, budget *Pool, n, workers int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if budget != nil {
		return budget.ForEach(ctx, n, fn)
	}
	return forEach(ctx, n, workers, nil, fn)
}

// forEach is the shared engine. When sem is non-nil every unit acquires a
// token before running and releases it after, so concurrent forEach calls
// sharing one sem are collectively bounded by its capacity. The dispatcher
// stops feeding indices as soon as any unit fails or ctx is cancelled.
func forEach(ctx context.Context, n, workers int, sem chan struct{}, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// The lowest-indexed error among units that ran and failed wins; O(1)
	// state so huge index ranges cost nothing up front.
	var (
		errMu    sync.Mutex
		firstErr error
		firstIdx int
	)
	var failed atomic.Bool
	record := func(i int, err error) {
		errMu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		errMu.Unlock()
		failed.Store(true)
	}
	// stop is closed on the first unit failure so the dispatcher quits
	// without waiting for a worker to come back for another index.
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	done := ctx.Done()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue
				}
				if sem != nil {
					select {
					case sem <- struct{}{}:
					case <-stop:
						// Another unit of this fan-out already failed; don't
						// keep waiting behind unrelated token holders.
						continue
					case <-done:
						halt()
						continue
					}
					// The budget wait may have been long; re-check so a
					// failure elsewhere skips this unit too.
					if failed.Load() {
						<-sem
						continue
					}
				}
				err := fn(i)
				if sem != nil {
					<-sem
				}
				if err != nil {
					record(i, err)
					halt()
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-stop:
			break dispatch
		case <-done:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
