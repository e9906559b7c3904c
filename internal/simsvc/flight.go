package simsvc

import (
	"context"
	"sync"

	"repro/internal/faultinject"
)

// flightGroup deduplicates concurrent work by key (a minimal singleflight):
// the first caller for a key becomes the leader and runs fn; callers that
// arrive while the leader is in flight wait for its result instead of
// re-running it. Followers stop waiting when their own context is
// cancelled; the leader's execution is governed by the leader's context.
// The service keeps one group for results and one for trace captures.
type flightGroup[T any] struct {
	faults *faultinject.Injector // nil: no join-seam faults (the capture group)
	mu     sync.Mutex
	calls  map[string]*flightCall[T]
}

type flightCall[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func newFlightGroup[T any](faults *faultinject.Injector) *flightGroup[T] {
	return &flightGroup[T]{faults: faults, calls: make(map[string]*flightCall[T])}
}

// do runs fn once per in-flight key. It returns the result, and shared=true
// when this caller waited on another caller's execution.
func (g *flightGroup[T]) do(ctx context.Context, key string, fn func() (T, error)) (val T, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		// A fault at the join seam fails only this follower; the leader's
		// execution (and every other waiter) is untouched.
		if err := g.faults.Fire(ctx, faultinject.PointFlightJoin); err != nil {
			return val, true, err
		}
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return val, true, ctx.Err()
		}
	}
	c := &flightCall[T]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
