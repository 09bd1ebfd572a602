package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// Flight coalesces concurrent identical computations by key: while one
// caller (the leader) computes, callers with the same key join its
// result instead of computing again. Sound only for computations whose
// result is a pure function of the key — which is exactly the
// determinism contract of this service's request paths, so Measure,
// Analyze, Infer, and Plan all coalesce through this one protocol.
type Flight[T any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[T]

	leaders   atomic.Uint64
	followers atomic.Uint64
}

// flightCall is one in-flight computation followers can join.
type flightCall[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// NewFlight returns an empty flight group.
func NewFlight[T any]() *Flight[T] {
	return &Flight[T]{calls: make(map[string]*flightCall[T])}
}

// Do executes compute under key for a whole request, joining an
// identical in-flight computation when one exists. A follower's trace
// stays truthful: it waited on a leader, it did not execute, so it
// records the coalesce-wait span and the coalesced mark rather than a
// replay of the leader's execution spans.
func (f *Flight[T]) Do(ctx context.Context, key string, compute func() (T, error)) (T, error) {
	return f.do(ctx, key, -1, compute)
}

// Item is Do for item i of a batch: a followed item's coalesce-wait
// span carries the item index, and the batch's trace is never marked
// coalesced (other items may have executed).
func (f *Flight[T]) Item(ctx context.Context, i int, key string, compute func() (T, error)) (T, error) {
	return f.do(ctx, key, i, compute)
}

// do runs one call through the flight; item is the batch index, or -1
// for a whole request.
func (f *Flight[T]) do(ctx context.Context, key string, item int, compute func() (T, error)) (T, error) {
	tr := telemetry.FromContext(ctx)
	wait := tr.Clock()
	val, joined, err := f.join(ctx, key, compute)
	if joined {
		if item < 0 {
			tr.SetCoalesced()
			tr.AddSince(telemetry.SpanCoalesceWait, wait)
		} else {
			tr.AddSince(telemetry.SpanCoalesceWait, wait,
				telemetry.Annotation{Key: "item", Value: strconv.Itoa(item)})
		}
	}
	return val, err
}

// join executes compute under key or waits on the identical in-flight
// call. joined reports whether this caller ever waited on another's
// execution; the call counts once, as a follower if it ever joined and
// as a leader otherwise, the moment its role is known. A leader's
// cancellation error is not inherited: it is the *leader's*
// cancellation, not the follower's, so a still-live follower retries —
// becoming leader itself if the slot is free — rather than failing.
func (f *Flight[T]) join(ctx context.Context, key string, compute func() (T, error)) (val T, joined bool, err error) {
	for {
		f.mu.Lock()
		if c, ok := f.calls[key]; ok {
			f.mu.Unlock()
			if !joined {
				f.followers.Add(1)
			}
			joined = true
			select {
			case <-c.done:
				if isContextErr(c.err) && ctx.Err() == nil {
					continue
				}
				return c.val, true, c.err
			case <-ctx.Done():
				return val, true, ctx.Err()
			}
		}
		c := &flightCall[T]{done: make(chan struct{})}
		f.calls[key] = c
		f.mu.Unlock()
		if !joined {
			f.leaders.Add(1)
		}

		c.val, c.err = compute()
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
		return c.val, joined, c.err
	}
}

// Len reports how many computations are currently in flight.
func (f *Flight[T]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// Counts reports how many calls executed as leader and how many joined
// an identical in-flight execution as followers.
func (f *Flight[T]) Counts() (leaders, followers uint64) {
	return f.leaders.Load(), f.followers.Load()
}

// isContextErr reports whether err is a cancellation or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// serve is the one request path of the coalesced endpoints. The trace
// wish is captured before normalization strips it: the canonical
// request — and therefore every coalescing key — is trace-free, so
// traced and untraced duplicates share one flight. In-process callers
// (tests, tools) get a trace without the HTTP middleware having
// installed one. The trace block is wall-time and per-caller, so it is
// attached to the caller's own copy of the response, never written
// onto one a flight shares.
func serve[Req interface{ Normalized() (Req, error) }, Resp interface{ WithTrace(*api.TraceInfo) Resp }](
	ctx context.Context, req Req, wantTrace bool, run func(context.Context, Req) (Resp, error),
) (Resp, error) {
	tr := telemetry.FromContext(ctx)
	if wantTrace && tr == nil {
		tr = telemetry.New()
		ctx = telemetry.NewContext(ctx, tr)
	}
	sp := tr.Start(telemetry.SpanCanonicalize)
	norm, err := req.Normalized()
	sp.End()
	if err != nil {
		var zero Resp
		return zero, err
	}
	resp, err := run(ctx, norm)
	if err != nil || !wantTrace {
		return resp, err
	}
	return resp.WithTrace(api.TraceInfoFrom(tr)), nil
}

// batch runs every item of a normalized Analyze or Infer batch through
// f concurrently, each on its own flight key, and returns the results
// in item order. The lowest-index failure fails the batch: a partial
// answer would be indistinguishable from a complete one.
func batch[Item interface{ Key() string }, Res any](ctx context.Context, f *Flight[*Res], items []Item, execute func(context.Context, Item) (*Res, error)) ([]Res, error) {
	results := make([]Res, len(items))
	i, err := fanOut(len(items), func(i int) error {
		res, err := f.Item(ctx, i, items[i].Key(), func() (*Res, error) { return execute(ctx, items[i]) })
		if err == nil {
			results[i] = *res
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("item %d: %w", i, err)
	}
	return results, nil
}

// fanOut runs fn(i) for every i in [0, n) concurrently and returns the
// lowest-index failure with its index, so identical work fails
// identically regardless of goroutine scheduling.
func fanOut(n int, fn func(i int) error) (int, error) {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return 0, nil
}
