// Package sched is the parallel experiment scheduler: a fixed-size worker
// pool that fans a batch of independent jobs out over goroutines while
// keeping every observable output — results, emission order, the error
// returned on failure — identical to a sequential execution of the same
// batch.
//
// The determinism contract rests on a property the rest of the repository
// already provides: every run and every sweep cell draws its randomness
// from its own labeled stream (rng.NewLabeled), so a job's result is a pure
// function of its index and never of the order jobs happen to finish in.
// The scheduler preserves that purity at the collection layer:
//
//   - Results are collected into a slice indexed by job, so the caller sees
//     them in job order regardless of completion order.
//   - The optional emit callback fires in strict job order (a hold-back
//     buffer delays out-of-order completions), so progress output is
//     byte-identical to the sequential loop it replaces.
//   - On failure the error for the lowest-numbered failing job is returned.
//     Workers claim jobs in increasing index order and never abandon a
//     claimed job, so the lowest failing index is reached on every
//     schedule, making the returned error independent of timing.
//   - A failure stops new claims but does not cancel the jobs already
//     claimed: they run with the parent's context and finish with their
//     own result, as they would in the sequential loop. Were they
//     cancelled, a lower-indexed job still in flight would return
//     context.Canceled and be reported in place of the job that failed.
//
// Cancellation of the parent context stops the pool promptly: no new jobs
// are claimed, in-flight jobs see the cancellation, and ctx.Err() is
// returned.
//
// When the context carries a Budget (WithBudget), every worker must hold
// one of the budget's tokens before it claims jobs, so pools at different
// nesting levels — sweep cells outside, scenario runs inside — share one
// global concurrency bound instead of multiplying. See Budget for the
// token-lending rule that keeps nesting deadlock-free. Budgeting changes
// only scheduling, never results: the determinism contract above is
// independent of which workers obtain tokens when.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool sizes a worker pool. The zero value is ready to use and runs with
// one worker per available CPU.
type Pool struct {
	// Workers is the maximum number of jobs in flight. Zero or negative
	// selects runtime.GOMAXPROCS(0).
	Workers int
}

// Resolve normalizes a user-facing worker-count knob (Scenario.Workers,
// SweepOptions.Workers): 0 or 1 means sequential, negative means one
// worker per available CPU, anything else is taken as-is.
func Resolve(workers int) int {
	switch {
	case workers < 0:
		return runtime.GOMAXPROCS(0)
	case workers == 0:
		return 1
	}
	return workers
}

// size returns the effective worker count for a batch of n jobs.
func (p Pool) size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// JobError wraps a job's failure with the index it failed at.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Unwrap strips a *JobError wrapper, returning the job's own error. Use
// it at call sites whose job errors already identify themselves (a run
// index, a sweep cell); other errors pass through unchanged.
func Unwrap(err error) error {
	var je *JobError
	if errors.As(err, &je) {
		return je.Err
	}
	return err
}

// Run executes fn(ctx, i) for every i in [0, n) across the pool and waits
// for completion. On failure it returns the lowest-indexed job's error
// wrapped in a *JobError.
func (p Pool) Run(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, p, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// Map executes fn(ctx, i) for every i in [0, n) across the pool and
// returns the results indexed by job, identical to running the jobs in a
// sequential loop.
func Map[T any](ctx context.Context, p Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapWorkers(ctx, p, n,
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(ctx context.Context, _ struct{}, i int) (T, error) { return fn(ctx, i) },
		nil)
}

// MapWorkers is the general form of Map: each worker goroutine builds
// private state once (lazily, before its first job) with newWorker and
// passes it to every job it executes. Use it when jobs need an expensive
// reusable environment — a preloaded backend, a generator with its client
// machines — that is not safe to share across goroutines.
//
// If emit is non-nil it is called as (i, result) in strict job order as
// completed prefixes become available; emissions stop before the first
// failed job. newWorker failures are attributed to the job the worker had
// claimed.
//
// For results to be independent of the worker count, fn must derive job
// i's output only from i and the worker state reachable deterministically
// from newWorker — the per-run labeled-stream discipline used throughout
// this repository.
func MapWorkers[W, T any](ctx context.Context, p Pool, n int,
	newWorker func(worker int) (W, error),
	fn func(ctx context.Context, st W, i int) (T, error),
	emit func(i int, v T)) ([]T, error) {

	if n <= 0 {
		return nil, ctx.Err()
	}

	budget := BudgetFrom(ctx)
	if budget != nil && holdsToken(ctx, budget) {
		// This pool is nested inside a budgeted worker's job. Lend the
		// caller's token to the workers below for as long as this batch
		// runs — the calling goroutine only blocks in wg.Wait — and take
		// it back before returning to the job.
		budget.release()
		defer budget.acquire()
	}

	// Jobs run with the parent's context, so only the parent's
	// cancellation reaches them; a failure cancels claimCtx, which stops
	// claims and token waits. Jobs also carry the token their worker
	// holds; a nested pool started by fn finds the marker and lends
	// onward.
	jobCtx := ctx
	if budget != nil {
		jobCtx = withToken(ctx, budget)
	}
	claimCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex // guards firstErr, done, nextEmit
		firstErr *JobError
		done     = make([]bool, n)
		nextEmit int
	)

	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstErr.Index {
			firstErr = &JobError{Index: i, Err: err}
		}
		mu.Unlock()
		cancel()
	}

	workers := p.size(n)
	if budget != nil && workers > budget.Capacity() {
		workers = budget.Capacity() // extra workers could never hold a token
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			if budget != nil {
				// The token is taken before the first claim and held for
				// the worker's lifetime, so a claimed job still always
				// executes (the invariant the error contract rests on).
				if int(next.Load()) >= n {
					return // batch already fully claimed; skip the wait
				}
				if !budget.tryAcquire(claimCtx) {
					return
				}
				defer budget.release()
			}
			var st W
			created := false
			for {
				// The cancellation check precedes the claim, so a claimed
				// job always executes. Workers claim indices in increasing
				// order; together these guarantee the lowest failing index
				// is reached on every schedule (see package comment).
				if claimCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !created {
					var err error
					if st, err = newWorker(worker); err != nil {
						fail(i, fmt.Errorf("sched: worker init: %w", err))
						return
					}
					created = true
				}
				v, err := fn(jobCtx, st, i)
				if err != nil {
					fail(i, err)
					return
				}
				mu.Lock()
				results[i] = v
				done[i] = true
				if emit != nil {
					for nextEmit < n && done[nextEmit] {
						emit(nextEmit, results[nextEmit])
						nextEmit++
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	// With no job failure, the only way jobs were skipped is a parent
	// cancellation; report it.
	for i := range done {
		if !done[i] {
			return nil, ctx.Err()
		}
	}
	return results, nil
}
