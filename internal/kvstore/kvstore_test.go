package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// These tests check the single-fork basics: a value set is read back, an
// ID never set misses, an overwrite replaces the size, the item size limit
// holds, and forks each driven by their own goroutine share one base.

func TestSetGet(t *testing.T) {
	f := frozen(t, 0, 0).Fork()
	if err := f.Set(7, 1); err != nil {
		t.Fatal(err)
	}
	size, ok := f.ValueSize(7)
	if !ok {
		t.Fatal("ValueSize(7) missed after Set")
	}
	if size != 1 {
		t.Errorf("ValueSize(7) = %d, want 1", size)
	}
}

func TestGetMissing(t *testing.T) {
	f := frozen(t, 4, 10).Fork()
	for _, id := range []int{4, 99, -1} {
		if size, ok := f.ValueSize(id); ok {
			t.Errorf("ValueSize(%d) = %d, true; want a miss", id, size)
		}
	}
}

// TestOverwriteUpdatesValueAndBytes pins that a second Set of one ID
// replaces its value size, both for an ID only the overlay holds and for
// one the base holds.
func TestOverwriteUpdatesValueAndBytes(t *testing.T) {
	f := frozen(t, 4, 10).Fork()
	for _, id := range []int{2, 50} {
		if err := f.Set(id, len("short")); err != nil {
			t.Fatal(err)
		}
		if err := f.Set(id, len("a much longer value")); err != nil {
			t.Fatal(err)
		}
		size, ok := f.ValueSize(id)
		if !ok {
			t.Fatalf("ValueSize(%d) missed after overwrite", id)
		}
		if size != len("a much longer value") {
			t.Errorf("ValueSize(%d) after overwrite = %d, want %d", id, size, len("a much longer value"))
		}
	}
}

func TestValueSizeLimit(t *testing.T) {
	f := frozen(t, 0, 0).Fork()
	if err := f.Set(1, MaxValueSize+1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized value: want ErrTooLarge, got %v", err)
	}
	if size, ok := f.ValueSize(1); ok {
		t.Errorf("rejected Set stored a value of %d bytes", size)
	}
	if err := f.Set(1, MaxValueSize); err != nil {
		t.Errorf("value at the limit rejected: %v", err)
	}
}

// TestConcurrentAccess runs Set and ValueSize from parallel goroutines
// (run under -race), each on a fork of one snapshot that it alone owns:
// the concurrency an environment pool's workers and a run's shards have,
// each driving its own Memcached instance. Every goroutine writes IDs
// inside and past the base that its siblings write too, so each fork must
// read back exactly what its own goroutine wrote, and the base must keep
// its sizes.
func TestConcurrentAccess(t *testing.T) {
	sn := frozen(t, 100, 5)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := sn.Fork()
			wrote := make(map[int]int)
			for i := 0; i < 1000; i++ {
				id := (g*50 + i*7) % 160
				size := 1 + i%50 + g
				if err := f.Set(id, size); err != nil {
					errs <- err
					return
				}
				wrote[id] = size
				if got, ok := f.ValueSize(id); !ok || got != size {
					errs <- fmt.Errorf("goroutine %d: ValueSize(%d) = %d, %v; want %d", g, id, got, ok, size)
					return
				}
			}
			for id := 0; id < 170; id++ {
				want, wantOK := wrote[id]
				if !wantOK && id < 100 {
					want, wantOK = 5, true
				}
				if got, ok := f.ValueSize(id); got != want || ok != wantOK {
					errs <- fmt.Errorf("goroutine %d: final ValueSize(%d) = %d, %v; want %d, %v", g, id, got, ok, want, wantOK)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for id, size := range sn.sizes {
		if size != 5 {
			t.Fatalf("base changed under its forks: ID %d holds %d bytes", id, size)
		}
	}
}

// Property: after Set(id, size) with size in range, ValueSize(id) returns
// size; a size out of range is rejected and leaves the ID as it was.
func TestPropertySetThenGet(t *testing.T) {
	f := frozen(t, 16, 3).Fork()
	check := func(id int16, raw int32) bool {
		size := int(raw) % (2 * MaxValueSize)
		before, beforeOK := f.ValueSize(int(id))
		err := f.Set(int(id), size)
		got, ok := f.ValueSize(int(id))
		if size < 0 || size > MaxValueSize {
			return errors.Is(err, ErrTooLarge) && got == before && ok == beforeOK
		}
		return err == nil && ok && got == size
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
