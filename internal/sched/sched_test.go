package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapCollectsInJobOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(context.Background(), Pool{Workers: workers}, 100,
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapMatchesSequentialExactly(t *testing.T) {
	job := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("job-%03d", i), nil
	}
	seq, err := Map(context.Background(), Pool{Workers: 1}, 50, job)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(context.Background(), Pool{Workers: 8}, 50, job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel result differs from sequential")
	}
}

func TestEmitFiresInOrder(t *testing.T) {
	var mu sync.Mutex
	var emitted []int
	_, err := MapWorkers(context.Background(), Pool{Workers: 8}, 64,
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ context.Context, _ struct{}, i int) (int, error) {
			// Make early jobs slow so late jobs complete first.
			if i < 8 {
				time.Sleep(time.Duration(8-i) * time.Millisecond)
			}
			return i, nil
		},
		func(i int, v int) {
			mu.Lock()
			emitted = append(emitted, v)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 64 {
		t.Fatalf("emitted %d values, want 64", len(emitted))
	}
	for i, v := range emitted {
		if v != i {
			t.Fatalf("emission %d carried job %d, want strict job order", i, v)
		}
	}
}

func TestLowestFailingJobWins(t *testing.T) {
	// Jobs 7 and 23 both fail; the error must always name 7, whatever
	// the schedule, because workers claim indices in increasing order.
	for trial := 0; trial < 20; trial++ {
		for _, workers := range []int{2, 4, 8} {
			_, err := Map(context.Background(), Pool{Workers: workers}, 40,
				func(_ context.Context, i int) (int, error) {
					if i == 7 || i == 23 {
						return 0, fmt.Errorf("boom at %d", i)
					}
					return i, nil
				})
			var je *JobError
			if !errors.As(err, &je) {
				t.Fatalf("workers=%d: error %v is not a JobError", workers, err)
			}
			if je.Index != 7 {
				t.Fatalf("workers=%d trial=%d: failed at job %d, want deterministic job 7", workers, trial, je.Index)
			}
		}
	}
}

// TestLastJobFailureReportedAtAnyWidth runs four jobs where only the
// last fails and the others wait on their context. A sibling's failure
// must not cancel jobs already claimed, or a lower-indexed one returns
// context.Canceled and is reported instead; every width must report the
// failing job, as the sequential loop does.
func TestLastJobFailureReportedAtAnyWidth(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		_, err := Map(context.Background(), Pool{Workers: workers}, 4,
			func(ctx context.Context, i int) (int, error) {
				if i == 3 {
					return 0, fmt.Errorf("cell %d failed", i)
				}
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(20 * time.Millisecond):
					return i, nil
				}
			})
		if err == nil || err.Error() != "job 3: cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want job 3: cell 3 failed", workers, err)
		}
	}
}

func TestErrorStopsRemainingJobs(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(context.Background(), Pool{Workers: 2}, 10_000,
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 3 {
				return 0, errors.New("fail fast")
			}
			time.Sleep(100 * time.Microsecond)
			return i, nil
		})
	if err == nil {
		t.Fatal("no error propagated")
	}
	if n := ran.Load(); n > 100 {
		t.Errorf("%d jobs ran after early failure, want prompt cancellation", n)
	}
}

func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Map(ctx, Pool{Workers: 2}, 1_000_000,
			func(_ context.Context, i int) (int, error) {
				ran.Add(1)
				time.Sleep(50 * time.Microsecond)
				return i, nil
			})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Error("cancellation did not stop the batch")
	}
}

func TestWorkerStateIsPrivateAndReused(t *testing.T) {
	type state struct{ id, jobs int }
	var created atomic.Int64
	const workers, jobs = 4, 200
	sts := make([]*state, 0, workers)
	var mu sync.Mutex
	_, err := MapWorkers(context.Background(), Pool{Workers: workers}, jobs,
		func(w int) (*state, error) {
			created.Add(1)
			st := &state{id: w}
			mu.Lock()
			sts = append(sts, st)
			mu.Unlock()
			return st, nil
		},
		func(_ context.Context, st *state, i int) (int, error) {
			st.jobs++ // would race if state were shared between workers
			return i, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := created.Load(); n < 1 || n > workers {
		t.Fatalf("created %d worker states, want 1..%d", n, workers)
	}
	total := 0
	mu.Lock()
	for _, st := range sts {
		total += st.jobs
	}
	mu.Unlock()
	if total != jobs {
		t.Errorf("worker states saw %d jobs, want %d", total, jobs)
	}
}

func TestWorkerInitFailure(t *testing.T) {
	wantErr := errors.New("no backend")
	_, err := MapWorkers(context.Background(), Pool{Workers: 3}, 10,
		func(int) (struct{}, error) { return struct{}{}, wantErr },
		func(_ context.Context, _ struct{}, i int) (int, error) { return i, nil }, nil)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped %v", err, wantErr)
	}
}

func TestZeroJobs(t *testing.T) {
	got, err := Map(context.Background(), Pool{}, 0,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("n=0: got %v, %v", got, err)
	}
}

func TestPoolSizing(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 8, -1}, // GOMAXPROCS-dependent; just bounded below
		{3, 8, 3},
		{16, 4, 4},
		{1, 8, 1},
		{-1, 0, 1},
	}
	for _, c := range cases {
		got := Pool{Workers: c.workers}.size(c.n)
		if c.want == -1 {
			if got < 1 {
				t.Errorf("size(%d, n=%d) = %d, want ≥1", c.workers, c.n, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("size(%d, n=%d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestRunConvenience(t *testing.T) {
	var count atomic.Int64
	if err := (Pool{Workers: 4}).Run(context.Background(), 32, func(_ context.Context, i int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 32 {
		t.Errorf("ran %d jobs, want 32", count.Load())
	}
}

// TestRaceStress drives many concurrent jobs through shared collection
// state; it exists to give `go test -race` something to chew on and runs
// in short mode by design.
func TestRaceStress(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		var emitSum atomic.Int64
		got, err := MapWorkers(context.Background(), Pool{Workers: 8}, 500,
			func(w int) (*int, error) { v := 0; return &v, nil },
			func(_ context.Context, scratch *int, i int) (int, error) {
				*scratch += i
				return i, nil
			},
			func(_ int, v int) { emitSum.Add(int64(v)) })
		if err != nil {
			t.Fatal(err)
		}
		sum := int64(0)
		for _, v := range got {
			sum += int64(v)
		}
		const want = 500 * 499 / 2
		if sum != want || emitSum.Load() != want {
			t.Fatalf("collected %d / emitted %d, want %d", sum, emitSum.Load(), want)
		}
	}
}
