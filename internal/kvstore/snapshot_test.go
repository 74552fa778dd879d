package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/rng"
)

// frozen builds a snapshot of n items of valueSize bytes each; ID i's
// value is filled with byte i, so a test can tell items apart.
func frozen(t testing.TB, n, valueSize int) *Snapshot {
	t.Helper()
	entries := make([]Entry, n)
	for i := range entries {
		entries[i].Value = bytes.Repeat([]byte{byte(i)}, valueSize)
	}
	sn, err := NewSnapshot(entries)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// TestForkNeverMutatesBase pins that a snapshot is immutable under its
// forks: Set and SetShared over a base item, Delete, TTL expiry and Reset
// never change a base value, Len or Bytes.
func TestForkNeverMutatesBase(t *testing.T) {
	entries := make([]Entry, 8)
	want := make([][]byte, len(entries))
	for i := range entries {
		entries[i].Value = bytes.Repeat([]byte{byte(i)}, 32)
		want[i] = bytes.Repeat([]byte{byte(i)}, 32)
	}
	entries[5].ExpiresAt = 100
	sn, err := NewSnapshot(entries)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		if sn.Len() != 8 || sn.Bytes() != 8*32 {
			t.Fatalf("after %s: base len=%d bytes=%d, want 8/256", step, sn.Len(), sn.Bytes())
		}
		for i, e := range sn.entries {
			if !bytes.Equal(e.Value, want[i]) {
				t.Fatalf("after %s: base value %d = %v, want %v", step, i, e.Value[:4], want[i][:4])
			}
		}
	}

	f := sn.Fork()
	v, err := f.Get(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v[0] = 0xff // Get hands out a copy
	check("writing into a Get result")
	if err := f.Set(1, bytes.Repeat([]byte{0xee}, 32), 0); err != nil {
		t.Fatal(err)
	}
	check("Set")
	if err := f.SetShared(2, make([]byte, 5), 0); err != nil {
		t.Fatal(err)
	}
	check("SetShared")
	f.Delete(3)
	check("Delete")
	if _, err := f.Get(5, 100); err != ErrNotFound {
		t.Fatalf("expired base item: %v", err)
	}
	check("expiry")
	f.Reset()
	check("Reset")
	if v, err := f.Get(1, 0); err != nil || !bytes.Equal(v, want[1]) {
		t.Errorf("after Reset: item 1 = %v, %v; want the base value", v, err)
	}
}

func TestNewSnapshotRejectsOversizedValue(t *testing.T) {
	if _, err := NewSnapshot([]Entry{{Value: make([]byte, 3)}, {Value: make([]byte, MaxValueSize+1)}}); err == nil {
		t.Error("oversized value accepted")
	}
	sn, err := NewSnapshot([]Entry{{Value: make([]byte, MaxValueSize)}})
	if err != nil {
		t.Fatalf("largest value rejected: %v", err)
	}
	if sn.Len() != 1 || sn.Bytes() != MaxValueSize {
		t.Errorf("largest value: len=%d bytes=%d", sn.Len(), sn.Bytes())
	}
}

func TestForkWritesInvisibleToSiblingsAndBase(t *testing.T) {
	sn := frozen(t, 50, 16)
	a, b := sn.Fork(), sn.Fork()
	const onlyInA = 50 // the first ID past the base

	// Overwrite, add and delete in fork a.
	if err := a.Set(3, make([]byte, 99), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Set(onlyInA, make([]byte, 10), 0); err != nil {
		t.Fatal(err)
	}
	if !a.Delete(4) {
		t.Fatal("delete of visible base item reported absent")
	}

	// Fork a sees its own state.
	if v, _ := a.Get(3, 0); len(v) != 99 {
		t.Errorf("a overwrite lost: len=%d", len(v))
	}
	if _, err := a.Get(4, 0); err != ErrNotFound {
		t.Errorf("a delete not applied: %v", err)
	}
	if v, err := a.Get(onlyInA, 0); err != nil || len(v) != 10 {
		t.Errorf("a insert past the base: len=%d err=%v", len(v), err)
	}
	if a.Len() != 50 || a.Bytes() != 50*16-16+99-16+10 {
		t.Errorf("a len=%d bytes=%d", a.Len(), a.Bytes())
	}

	// Sibling b sees the pristine base.
	if v, _ := b.Get(3, 0); len(v) != 16 {
		t.Errorf("sibling sees a's overwrite: len=%d", len(v))
	}
	if _, err := b.Get(4, 0); err != nil {
		t.Errorf("sibling sees a's delete: %v", err)
	}
	if _, err := b.Get(onlyInA, 0); err != ErrNotFound {
		t.Errorf("sibling sees a's insert: %v", err)
	}
	if b.Len() != 50 || b.Bytes() != 50*16 {
		t.Errorf("b len=%d bytes=%d, want pristine 50/800", b.Len(), b.Bytes())
	}

	// The base itself is untouched.
	if sn.Len() != 50 || sn.Bytes() != 50*16 {
		t.Errorf("base mutated: len=%d bytes=%d", sn.Len(), sn.Bytes())
	}

	// Deleting a fork-only item removes the overlay entry entirely.
	if !a.Delete(onlyInA) {
		t.Error("fork-only item delete reported absent")
	}
	if a.Delete(onlyInA) {
		t.Error("double delete reported present")
	}
	if a.Dirty() != 2 {
		t.Errorf("a dirty = %d, want 2 (overwrite and tombstone)", a.Dirty())
	}
}

// TestForkMissOutsideBase pins that IDs the base does not hold, past its
// end or negative, start absent: reads miss and Delete reports nothing.
func TestForkMissOutsideBase(t *testing.T) {
	f := frozen(t, 5, 8).Fork()
	for _, id := range []int{5, 6, 1 << 30, -1} {
		if _, err := f.Get(id, 0); err != ErrNotFound {
			t.Errorf("Get(%d): %v, want ErrNotFound", id, err)
		}
		if _, err := f.ValueSize(id, 0); err != ErrNotFound {
			t.Errorf("ValueSize(%d): %v, want ErrNotFound", id, err)
		}
		if f.Delete(id) {
			t.Errorf("Delete(%d) reported present", id)
		}
	}
	if st := f.Stats(); st.Hits != 0 || st.Misses != 8 {
		t.Errorf("stats = %+v, want 8 misses", st)
	}
	if f.Len() != 5 || f.Bytes() != 40 || f.Dirty() != 0 {
		t.Errorf("misses changed the fork: len=%d bytes=%d dirty=%d", f.Len(), f.Bytes(), f.Dirty())
	}
}

func TestForkTTLAcrossLayers(t *testing.T) {
	sn, err := NewSnapshot([]Entry{{Value: make([]byte, 8), ExpiresAt: 100}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sn.Fork(), sn.Fork()
	const ttl, ow = 0, 1 // a base item with a TTL, and an overlay-only ID

	// Before expiry: hit.
	if _, err := a.Get(ttl, 99); err != nil {
		t.Fatalf("pre-expiry get: %v", err)
	}
	// At expiry: miss + expiration, and the entry is gone from a's view.
	if _, err := a.Get(ttl, 100); err != ErrNotFound {
		t.Fatalf("expired get: %v", err)
	}
	if _, err := a.Get(ttl, 0); err != ErrNotFound {
		t.Error("tombstone not persisted after expiry")
	}
	if a.Len() != 0 || a.Bytes() != 0 {
		t.Errorf("a len=%d bytes=%d after expiry, want 0/0", a.Len(), a.Bytes())
	}
	st := a.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Expirations != 1 || st.Evictions != 0 {
		t.Errorf("a stats = %+v", st)
	}

	// The sibling's clock is independent: b still sees the entry before
	// its own expiry observation, and b's counters are untouched by a.
	if _, err := b.Get(ttl, 50); err != nil {
		t.Errorf("sibling lost entry to a's expiration: %v", err)
	}
	if st := b.Stats(); st.Hits != 1 || st.Misses != 0 || st.Expirations != 0 {
		t.Errorf("b stats = %+v", st)
	}

	// An overlay write can expire too.
	if err := b.Set(ow, make([]byte, 4), 200); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(ow, 300); err != ErrNotFound {
		t.Errorf("overlay TTL not applied: %v", err)
	}
	if st := b.Stats(); st.Expirations != 1 {
		t.Errorf("overlay expiration not counted: %+v", st)
	}
	if b.Len() != 1 || b.Bytes() != 8 {
		t.Errorf("b len=%d bytes=%d after overlay expiry, want 1/8", b.Len(), b.Bytes())
	}
}

func TestForkResetDropsOverlay(t *testing.T) {
	f := frozen(t, 40, 16).Fork()
	const extra = 40 // past the base

	for i := 0; i < 10; i++ {
		if err := f.Set(i, make([]byte, 50), 0); err != nil {
			t.Fatal(err)
		}
	}
	f.Delete(20)
	if err := f.Set(extra, make([]byte, 5), 0); err != nil {
		t.Fatal(err)
	}
	if f.Dirty() != 12 {
		t.Errorf("dirty = %d, want 12", f.Dirty())
	}

	f.Reset()
	if f.Dirty() != 0 {
		t.Errorf("dirty after reset = %d", f.Dirty())
	}
	if f.Len() != 40 || f.Bytes() != 40*16 {
		t.Errorf("after reset len=%d bytes=%d, want pristine 40/640", f.Len(), f.Bytes())
	}
	if v, err := f.Get(0, 0); err != nil || len(v) != 16 {
		t.Errorf("after reset value len=%d err=%v, want preloaded 16", len(v), err)
	}
	if _, err := f.Get(20, 0); err != nil {
		t.Errorf("after reset deleted item still masked: %v", err)
	}
	if _, err := f.Get(extra, 0); err != ErrNotFound {
		t.Errorf("after reset overlay insert survived: %v", err)
	}
}

func TestForkRejectsOversizedValue(t *testing.T) {
	sn, err := NewSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := sn.Fork()
	if err := f.Set(0, make([]byte, MaxValueSize+1), 0); err == nil {
		t.Error("oversized value accepted")
	}
	if f.Len() != 0 || f.Bytes() != 0 {
		t.Errorf("rejected set mutated fork: len=%d bytes=%d", f.Len(), f.Bytes())
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
					if err := f.Set(id, make([]byte, mySize), 0); err != nil {
						errs <- err
						return
					}
					v, err := f.Get(id, 0)
					if err != nil || len(v) != mySize {
						errs <- fmt.Errorf("fork %d: got len=%d err=%v, want %d", g, len(v), err, mySize)
						return
					}
				}
				// Untouched items must always read back pristine.
				if v, err := f.Get(100, 0); err != nil || len(v) != 24 {
					errs <- fmt.Errorf("fork %d: pristine item len=%d err=%v", g, len(v), err)
					return
				}
				f.Reset()
				if f.Len() != 200 {
					errs <- fmt.Errorf("fork %d: len=%d after reset", g, f.Len())
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
	if sn.Len() != 200 || sn.Bytes() != 200*24 {
		t.Errorf("base mutated by concurrent forks: len=%d bytes=%d", sn.Len(), sn.Bytes())
	}
}

// BenchmarkSweepMemoryPerCell reports the per-cell memory cost of giving
// one concurrent Memcached-style sweep cell its own view of a 100k-key
// preloaded store. cow-fork is the copy-on-write path (fork the shared
// snapshot, dirty ~1k IDs like a run's SETs, reset); full-preload is the
// pre-snapshot path (every cell rebuilds and re-preloads a private
// string-keyed store). Compare B/op and allocs/op between the two.
func BenchmarkSweepMemoryPerCell(b *testing.B) {
	const (
		keys      = 100_000
		valueSize = 330 // ≈ the ETC mean value size
		dirty     = 1_000
	)

	b.Run("cow-fork", func(b *testing.B) {
		sn := frozen(b, keys, valueSize)
		val := make([]byte, valueSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := sn.Fork()
			for id := 0; id < dirty; id++ {
				if err := f.Set(id, val, 0); err != nil {
					b.Fatal(err)
				}
			}
			f.Reset()
		}
	})

	b.Run("full-preload", func(b *testing.B) {
		buf := make([]byte, valueSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New(Config{Shards: 64})
			for k := 0; k < keys; k++ {
				if err := s.Set(fmt.Sprintf("etc-%012d", k), buf, 0); err != nil {
					b.Fatal(err)
				}
			}
			if s.Len() != keys {
				b.Fatal("preload incomplete")
			}
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
	sn := frozen(b, keys, 330)
	f := sn.Fork()
	zipf, stream := rng.NewZipf(keys, 0.99), rng.New(1)
	ids := make([]int, draws)
	for i := range ids {
		ids[i] = zipf.Draw(stream)
		if i%30 == 0 {
			if err := f.SetShared(ids[i], sn.entries[0].Value[:100], 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := f.ValueSize(ids[i&(draws-1)], 0)
		if err != nil {
			b.Fatal(err)
		}
		benchSize += n
	}
}

// TestForkValueSizeMatchesGet pins the allocation-free sized lookup
// against the reference Get on every layering case: base hit, overlay
// hit, miss past the base, tombstone, and TTL expiry (including the
// expiry's bookkeeping side effects).
func TestForkValueSizeMatchesGet(t *testing.T) {
	sn := frozen(t, 10, 32)

	// Each case prepares two forks identically: one looked up through
	// Get (reference), one through ValueSize.
	mk := func() (*Fork, *Fork) { return sn.Fork(), sn.Fork() }

	// Base hit.
	a, b := mk()
	v, err1 := a.Get(3, 0)
	n, err2 := b.ValueSize(3, 0)
	if err1 != nil || err2 != nil || n != len(v) {
		t.Fatalf("base hit: Get len=%d err=%v, ValueSize=%d err=%v", len(v), err1, n, err2)
	}

	// Overlay hit.
	a, b = mk()
	for _, f := range []*Fork{a, b} {
		if err := f.Set(3, make([]byte, 7), 0); err != nil {
			t.Fatal(err)
		}
	}
	v, err1 = a.Get(3, 0)
	n, err2 = b.ValueSize(3, 0)
	if err1 != nil || err2 != nil || n != 7 || len(v) != 7 {
		t.Fatalf("overlay hit: Get len=%d err=%v, ValueSize=%d err=%v", len(v), err1, n, err2)
	}

	// Miss past the base.
	a, b = mk()
	if _, err := a.Get(10, 0); err != ErrNotFound {
		t.Fatalf("Get miss: %v", err)
	}
	if _, err := b.ValueSize(10, 0); err != ErrNotFound {
		t.Fatalf("ValueSize miss: %v", err)
	}

	// Tombstone: a deleted base item misses through both forms.
	a, b = mk()
	for _, f := range []*Fork{a, b} {
		f.Delete(4)
	}
	if _, err := a.Get(4, 0); err != ErrNotFound {
		t.Fatalf("Get of tombstone: %v", err)
	}
	if _, err := b.ValueSize(4, 0); err != ErrNotFound {
		t.Fatalf("ValueSize of tombstone: %v", err)
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("tombstone stats diverge: Get path %+v, ValueSize path %+v", sa, sb)
	}

	// TTL expiry: both forms must tombstone, count the expiration, and
	// report a miss.
	a, b = mk()
	for _, f := range []*Fork{a, b} {
		if err := f.Set(11, make([]byte, 5), 100); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Get(11, 200); err != ErrNotFound {
		t.Fatalf("Get after expiry: %v", err)
	}
	if _, err := b.ValueSize(11, 200); err != ErrNotFound {
		t.Fatalf("ValueSize after expiry: %v", err)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("stats diverge: Get path %+v, ValueSize path %+v", sa, sb)
	}
	if a.Len() != b.Len() || a.Dirty() != b.Dirty() {
		t.Fatalf("bookkeeping diverges: len %d/%d dirty %d/%d", a.Len(), b.Len(), a.Dirty(), b.Dirty())
	}
}

// TestForkSetShared pins ownership-transfer semantics: the stored slice
// is the caller's (no copy), size accounting matches Set, and reads see
// the shared bytes.
func TestForkSetShared(t *testing.T) {
	f := frozen(t, 4, 16).Fork()

	shared := make([]byte, 64)
	if err := f.SetShared(1, shared[:48], 0); err != nil {
		t.Fatal(err)
	}
	if n, err := f.ValueSize(1, 0); err != nil || n != 48 {
		t.Fatalf("ValueSize after SetShared = %d, %v; want 48", n, err)
	}
	if f.Bytes() != 3*16+48 {
		t.Fatalf("Bytes = %d, want %d", f.Bytes(), 3*16+48)
	}
	// No copy: a later write into the caller's slice shows through.
	shared[0] = 0xab
	if v, err := f.Get(1, 0); err != nil || v[0] != 0xab {
		t.Fatalf("SetShared copied the value: got %v, %v", v[:1], err)
	}
	if err := f.SetShared(99, make([]byte, MaxValueSize+1), 0); err == nil {
		t.Fatal("oversized SetShared accepted")
	}
	// Reset drops shared-slice overlay entries like any other.
	f.Reset()
	if n, err := f.ValueSize(1, 0); err != nil || n != 16 {
		t.Fatalf("after Reset: ValueSize = %d, %v; want pristine 16", n, err)
	}
}
