package kvstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/rng"
)

// frozen builds a snapshot of n IDs, each holding a value of valueSize
// bytes.
func frozen(t testing.TB, n, valueSize int) *Snapshot {
	t.Helper()
	sizes := make([]int32, n)
	for i := range sizes {
		sizes[i] = int32(valueSize)
	}
	sn, err := NewSnapshot(sizes)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// TestForkNeverMutatesBase pins that a snapshot is immutable under its
// forks: Set over a base ID, Set past the base, a rejected Set and Reset
// never change a base size.
func TestForkNeverMutatesBase(t *testing.T) {
	sizes := make([]int32, 8)
	for i := range sizes {
		sizes[i] = int32(10 * i)
	}
	want := slices.Clone(sizes)
	sn, err := NewSnapshot(sizes)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		if !slices.Equal(sn.sizes, want) {
			t.Fatalf("after %s: base sizes = %v, want %v", step, sn.sizes, want)
		}
	}

	f := sn.Fork()
	if err := f.Set(1, 999); err != nil {
		t.Fatal(err)
	}
	check("Set over a base ID")
	if err := f.Set(8, 5); err != nil {
		t.Fatal(err)
	}
	check("Set past the base")
	if err := f.Set(2, MaxValueSize+1); err == nil {
		t.Fatal("oversized Set accepted")
	}
	check("a rejected Set")
	f.Reset()
	check("Reset")
	if size, ok := f.ValueSize(1); !ok || size != 10 {
		t.Errorf("after Reset: ID 1 holds %d bytes (held: %v); want the base's 10", size, ok)
	}
}

func TestNewSnapshotRejectsOversizedValue(t *testing.T) {
	for _, bad := range []int32{MaxValueSize + 1, -1} {
		if _, err := NewSnapshot([]int32{3, bad}); !errors.Is(err, ErrTooLarge) {
			t.Errorf("size %d: err = %v, want ErrTooLarge", bad, err)
		}
	}
	sn, err := NewSnapshot([]int32{MaxValueSize, 0})
	if err != nil {
		t.Fatalf("sizes at both limits rejected: %v", err)
	}
	f := sn.Fork()
	if size, ok := f.ValueSize(0); !ok || size != MaxValueSize {
		t.Errorf("largest value: %d bytes (held: %v)", size, ok)
	}
	if size, ok := f.ValueSize(1); !ok || size != 0 {
		t.Errorf("empty value: %d bytes (held: %v)", size, ok)
	}
}

func TestForkWritesInvisibleToSiblingsAndBase(t *testing.T) {
	sn := frozen(t, 50, 16)
	a, b := sn.Fork(), sn.Fork()
	const onlyInA = 50 // the first ID past the base

	// Overwrite and add in fork a.
	if err := a.Set(3, 99); err != nil {
		t.Fatal(err)
	}
	if err := a.Set(onlyInA, 10); err != nil {
		t.Fatal(err)
	}

	// Fork a sees its own state.
	if size, ok := a.ValueSize(3); !ok || size != 99 {
		t.Errorf("a overwrite lost: size=%d held=%v", size, ok)
	}
	if size, ok := a.ValueSize(onlyInA); !ok || size != 10 {
		t.Errorf("a insert past the base: size=%d held=%v", size, ok)
	}

	// Sibling b sees the pristine base.
	if size, ok := b.ValueSize(3); !ok || size != 16 {
		t.Errorf("sibling sees a's overwrite: size=%d held=%v", size, ok)
	}
	if size, ok := b.ValueSize(onlyInA); ok {
		t.Errorf("sibling sees a's insert: size=%d", size)
	}

	// The base itself is untouched.
	for id, size := range sn.sizes {
		if size != 16 {
			t.Fatalf("base mutated: ID %d holds %d bytes", id, size)
		}
	}
	if len(sn.sizes) != 50 {
		t.Errorf("base grew to %d IDs", len(sn.sizes))
	}
}

// TestForkMissOutsideBase pins that IDs the base does not hold, past its
// end or negative, start absent, and that reading them writes nothing.
func TestForkMissOutsideBase(t *testing.T) {
	f := frozen(t, 5, 8).Fork()
	for _, id := range []int{5, 6, 1 << 30, -1} {
		if size, ok := f.ValueSize(id); ok {
			t.Errorf("ValueSize(%d) = %d, want a miss", id, size)
		}
	}
	if len(f.overlay) != 0 {
		t.Errorf("misses wrote %d overlay entries", len(f.overlay))
	}
}

func TestForkResetDropsOverlay(t *testing.T) {
	f := frozen(t, 40, 16).Fork()
	const extra = 40 // past the base

	for i := 0; i < 10; i++ {
		if err := f.Set(i, 50); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Set(extra, 5); err != nil {
		t.Fatal(err)
	}
	if len(f.overlay) != 11 {
		t.Errorf("overlay holds %d IDs, want 11", len(f.overlay))
	}

	f.Reset()
	if len(f.overlay) != 0 {
		t.Errorf("overlay holds %d IDs after reset", len(f.overlay))
	}
	if size, ok := f.ValueSize(0); !ok || size != 16 {
		t.Errorf("after reset size=%d held=%v, want preloaded 16", size, ok)
	}
	if size, ok := f.ValueSize(extra); ok {
		t.Errorf("after reset overlay insert survived: size=%d", size)
	}
}

func TestForkRejectsOversizedValue(t *testing.T) {
	sn, err := NewSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := sn.Fork()
	for _, bad := range []int{MaxValueSize + 1, -1} {
		if err := f.Set(0, bad); !errors.Is(err, ErrTooLarge) {
			t.Errorf("Set of %d bytes: err = %v, want ErrTooLarge", bad, err)
		}
	}
	if size, ok := f.ValueSize(0); ok || len(f.overlay) != 0 {
		t.Errorf("rejected sets wrote the fork: size=%d held=%v overlay=%d", size, ok, len(f.overlay))
	}
	if err := f.Set(0, MaxValueSize); err != nil {
		t.Errorf("largest value rejected: %v", err)
	}
}

// TestConcurrentForks exercises many forks of one snapshot from parallel
// goroutines (run under -race): sibling isolation must hold with the base
// read concurrently and each fork mutated from its own goroutine.
func TestConcurrentForks(t *testing.T) {
	sn := frozen(t, 200, 24)

	const forks = 8
	var wg sync.WaitGroup
	errs := make(chan error, forks)
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := sn.Fork()
			mySize := 10 + g
			for round := 0; round < 50; round++ {
				for id := 0; id < 20; id++ {
					if err := f.Set(id, mySize); err != nil {
						errs <- err
						return
					}
					if size, ok := f.ValueSize(id); !ok || size != mySize {
						errs <- fmt.Errorf("fork %d: got size=%d held=%v, want %d", g, size, ok, mySize)
						return
					}
				}
				// Untouched IDs must always read back pristine.
				if size, ok := f.ValueSize(100); !ok || size != 24 {
					errs <- fmt.Errorf("fork %d: pristine ID size=%d held=%v", g, size, ok)
					return
				}
				f.Reset()
				if size, ok := f.ValueSize(0); !ok || size != 24 {
					errs <- fmt.Errorf("fork %d: size=%d held=%v after reset", g, size, ok)
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
		if size != 24 {
			t.Fatalf("base mutated by concurrent forks: ID %d holds %d bytes", id, size)
		}
	}
}

// TestForkMatchesMapModel drives two sibling forks of one snapshot with
// seeded random Set, ValueSize and Reset calls. After every call it checks
// each fork, over every ID the calls can name, against the fork's own map
// model: a copy of the base that each accepted Set writes and Reset
// restores. IDs run from below zero to past the base; sizes include both
// limits and sizes outside them, which Set must reject without writing.
func TestForkMatchesMapModel(t *testing.T) {
	const (
		n     = 64
		loID  = -2
		hiID  = n + 8
		steps = 4000
	)
	stream := rng.New(20261017)
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(stream.Intn(2000))
	}
	sn, err := NewSnapshot(slices.Clone(src))
	if err != nil {
		t.Fatal(err)
	}
	pristine := func() map[int]int {
		m := make(map[int]int, n)
		for id, size := range src {
			m[id] = int(size)
		}
		return m
	}
	forks := [2]*Fork{sn.Fork(), sn.Fork()}
	models := [2]map[int]int{pristine(), pristine()}
	edgeSizes := []int{0, MaxValueSize, MaxValueSize + 1, -1}

	var rejected int
	for step := 0; step < steps; step++ {
		k := stream.Intn(2)
		f, model := forks[k], models[k]
		id := loID + stream.Intn(hiID-loID)
		switch op := stream.Intn(10); {
		case op < 5:
			size := stream.Intn(2000)
			if stream.Intn(4) == 0 {
				size = edgeSizes[stream.Intn(len(edgeSizes))]
			}
			err := f.Set(id, size)
			switch {
			case size < 0 || size > MaxValueSize:
				if !errors.Is(err, ErrTooLarge) {
					t.Fatalf("step %d: fork %d Set(%d, %d) = %v, want ErrTooLarge", step, k, id, size, err)
				}
				rejected++
			case err != nil:
				t.Fatalf("step %d: fork %d Set(%d, %d) = %v", step, k, id, size, err)
			default:
				model[id] = size
			}
		case op < 9:
			size, ok := f.ValueSize(id)
			if want, wantOK := model[id]; size != want || ok != wantOK {
				t.Fatalf("step %d: fork %d ValueSize(%d) = %d, %v; model %d, %v", step, k, id, size, ok, want, wantOK)
			}
		default:
			f.Reset()
			models[k] = pristine()
		}

		for j, fork := range forks {
			for id := loID; id < hiID; id++ {
				size, ok := fork.ValueSize(id)
				if want, wantOK := models[j][id]; size != want || ok != wantOK {
					t.Fatalf("after step %d: fork %d ID %d = %d, %v; model %d, %v", step, j, id, size, ok, want, wantOK)
				}
			}
		}
		if !slices.Equal(sn.sizes, src) {
			t.Fatalf("after step %d: base no longer equals its source", step)
		}
	}
	if rejected == 0 {
		t.Error("no Set was rejected; the draws never reached an out-of-range size")
	}
}

// BenchmarkSweepMemoryPerCell reports the per-cell memory cost of giving
// one concurrent Memcached-style sweep cell its own view of a 100k-key
// preloaded store: fork the shared snapshot, dirty ~1k IDs like a run's
// SETs, reset. Read B/op and allocs/op.
func BenchmarkSweepMemoryPerCell(b *testing.B) {
	const (
		keys      = 100_000
		valueSize = 330 // ≈ the ETC mean value size
		dirty     = 1_000
	)

	b.Run("cow-fork", func(b *testing.B) {
		sn := frozen(b, keys, valueSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := sn.Fork()
			for id := 0; id < dirty; id++ {
				if err := f.Set(id, valueSize); err != nil {
					b.Fatal(err)
				}
			}
			f.Reset()
		}
	})
}

// benchSize keeps BenchmarkForkValueSize's lookups observable.
var benchSize int

// BenchmarkForkValueSize measures the Memcached GET lookup: ValueSize on
// Zipf-drawn IDs (the ETC skew) over a 100K-ID snapshot whose fork holds
// a run's worth of SETs (one per 30 draws, the ETC GET:SET ratio). The
// IDs are drawn before timing, so only the lookup is measured.
func BenchmarkForkValueSize(b *testing.B) {
	const keys, draws = 100_000, 1 << 16
	f := frozen(b, keys, 330).Fork()
	zipf, stream := rng.NewZipf(keys, 0.99), rng.New(1)
	ids := make([]int, draws)
	for i := range ids {
		ids[i] = zipf.Draw(stream)
		if i%30 == 0 {
			if err := f.Set(ids[i], 100); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, ok := f.ValueSize(ids[i&(draws-1)])
		if !ok {
			b.Fatal("miss inside the base")
		}
		benchSize += n
	}
}
