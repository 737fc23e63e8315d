package core

import (
	"context"
	"runtime/pprof"
	"sync"
)

// Budget is a counting semaphore bounding how many CPU-bound goroutines the
// partitioning pipeline runs at once. One Budget is shared across the two
// layers that can go concurrent — daemon jobs (internal/service) and
// portfolio members — so stacking them cannot oversubscribe the machine. A
// nil *Budget is valid and unlimited.
//
// Budget gates concurrency only, never results: Fan, the fan-out behind
// Portfolio's members, runs the same fixed set of indices at any capacity,
// executing those that fail TryAcquire on the caller's goroutine instead of
// a new one.
type Budget struct {
	sem chan struct{}
}

// NewBudget returns a budget with n tokens; n < 1 is clamped to 1.
func NewBudget(n int) *Budget {
	if n < 1 {
		n = 1
	}
	return &Budget{sem: make(chan struct{}, n)}
}

// Cap returns the token capacity; 0 for the nil (unlimited) budget.
func (b *Budget) Cap() int {
	if b == nil {
		return 0
	}
	return cap(b.sem)
}

// Acquire blocks until a token is free or ctx is done, returning ctx's
// error in the latter case. The nil budget grants immediately.
func (b *Budget) Acquire(ctx context.Context) error {
	if b == nil {
		return ctx.Err()
	}
	select {
	case b.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a token if one is free, without blocking. The nil
// budget always grants.
func (b *Budget) TryAcquire() bool {
	if b == nil {
		return true
	}
	select {
	case b.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token taken by Acquire or TryAcquire.
func (b *Budget) Release() {
	if b == nil {
		return
	}
	<-b.sem
}

// Fan runs run(0), ..., run(n-1) and returns once all have returned. It is
// the only place the engine packages start goroutines, and Portfolio is its
// one caller. The caller is assumed to hold one token already: run(0)
// executes on the calling goroutine under it, every other index gets its
// own goroutine only when TryAcquire grants a spare token (released when
// that run returns), and the indices left over run on the calling goroutine
// in index order after run(0). A saturated budget therefore degrades to
// sequential execution, never to oversubscription. Spawned goroutines run
// under pprof labels(i), so profiles split by member. Token availability
// decides which runs overlap in time, never which runs happen.
func (b *Budget) Fan(ctx context.Context, n int, labels func(i int) pprof.LabelSet, run func(i int)) {
	if n < 1 {
		return
	}
	var wg sync.WaitGroup
	spawned := make([]bool, n)
	for i := 1; i < n; i++ {
		if !b.TryAcquire() {
			continue
		}
		spawned[i] = true
		wg.Add(1)
		go pprof.Do(ctx, labels(i), func(context.Context) {
			defer wg.Done()
			defer b.Release()
			run(i)
		})
	}
	run(0)
	for i := 1; i < n; i++ {
		if !spawned[i] {
			run(i)
		}
	}
	wg.Wait()
}
