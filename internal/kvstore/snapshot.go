// Copy-on-write snapshots. A Snapshot is an immutable base layer of items
// addressed by dense integer IDs; Fork derives cheap mutable overlays from
// it. The pattern is what lets N concurrent Memcached experiment cells
// share one preloaded key space instead of N private copies: the preload
// is built once, every cell forks it, and a run reset is "drop the
// overlay" instead of replaying the run's dirty keys.

package kvstore

import (
	"fmt"
	"sync"
)

// Entry is one frozen item of a Snapshot.
type Entry struct {
	Value     []byte
	ExpiresAt int64 // virtual nanoseconds; 0 = no expiry
}

// Snapshot is an immutable base layer of items addressed by ID, in
// [0, Len). It keeps the entries and values it was built from without
// copying them, so its builder must never mutate them (Fork.SetShared's
// contract). A Snapshot carries no locks and is safe for unlimited
// concurrent readers — which is exactly how sibling Forks use it.
//
// The base layer is frozen in every sense: no LRU recency reordering, no
// eviction, no TTL removal happen on it. Expiry of a base entry is
// observed per Fork (the fork records the expiration and masks the entry
// with a tombstone in its own overlay).
type Snapshot struct {
	entries []Entry
	bytes   int64
}

// NewSnapshot freezes entries, entries[i] as ID i, keeping the slice and
// its values as given. Expired entries are frozen as they are; each Fork
// applies TTL checks against its caller's own virtual clock.
func NewSnapshot(entries []Entry) (*Snapshot, error) {
	sn := &Snapshot{entries: entries}
	for id, e := range entries {
		if len(e.Value) > MaxValueSize {
			return nil, fmt.Errorf("%w: ID %d holds %d bytes", ErrTooLarge, id, len(e.Value))
		}
		sn.bytes += int64(len(e.Value))
	}
	return sn, nil
}

// Len returns the number of frozen items.
func (sn *Snapshot) Len() int { return len(sn.entries) }

// Bytes returns the total frozen value bytes.
func (sn *Snapshot) Bytes() int64 { return sn.bytes }

// has reports whether id addresses a frozen item.
func (sn *Snapshot) has(id int) bool { return uint(id) < uint(len(sn.entries)) }

// Fork derives a mutable copy-on-write view: reads fall through to the
// snapshot, writes land in a private overlay sized by the number of IDs
// actually touched. Forks of the same snapshot are fully independent —
// one fork's writes, deletes and expirations are invisible to its
// siblings and to the base.
func (sn *Snapshot) Fork() *Fork {
	return &Fork{base: sn, overlay: make(map[int]overlayEntry), items: len(sn.entries), bytes: sn.bytes}
}

// overlayEntry is one overlay item; deleted marks a tombstone masking a
// base entry.
type overlayEntry struct {
	value     []byte
	expiresAt int64
	deleted   bool
}

// Fork is a mutable overlay over an immutable Snapshot, presenting
// Store's Get/Set/Delete/Len/Bytes/Stats surface with an integer ID in
// place of the key; an ID the base does not hold starts absent. It is
// safe for concurrent use, though the intended deployment is one fork per
// experiment environment (a single sim-engine goroutine) with only the
// shared base read concurrently.
//
// Semantics versus Store: the base layer is frozen, so a fork performs no
// LRU bookkeeping and never evicts (its Stats.Evictions is always zero);
// hit/miss/expiration counters are fork-scoped and accumulate for the
// fork's lifetime (Reset drops data changes, not counters), mirroring how
// a Store's counters persist across experiment runs.
type Fork struct {
	mu      sync.Mutex
	base    *Snapshot
	overlay map[int]overlayEntry
	items   int   // current visible item count
	bytes   int64 // current visible value bytes

	hits, misses, expirations uint64
}

// Base returns the snapshot this fork overlays.
func (f *Fork) Base() *Snapshot { return f.base }

// visible returns the entry the fork currently presents for id, before
// any TTL check, and whether one exists.
func (f *Fork) visible(id int) (value []byte, expiresAt int64, ok bool) {
	if oe, inOverlay := f.overlay[id]; inOverlay {
		if oe.deleted {
			return nil, 0, false
		}
		return oe.value, oe.expiresAt, true
	}
	if f.base.has(id) {
		e := &f.base.entries[id]
		return e.Value, e.ExpiresAt, true
	}
	return nil, 0, false
}

// lookup returns the value visible under id at virtual time now and
// counts the hit or miss. An expired entry is masked with a tombstone so
// later reads (and Len/Bytes) agree it is gone. The caller holds f.mu.
func (f *Fork) lookup(id int, now int64) ([]byte, error) {
	value, expiresAt, ok := f.visible(id)
	if ok && expiresAt != 0 && now >= expiresAt {
		f.overlay[id] = overlayEntry{deleted: true}
		f.items--
		f.bytes -= int64(len(value))
		f.expirations++
		ok = false
	}
	if !ok {
		f.misses++
		return nil, ErrNotFound
	}
	f.hits++
	return value, nil
}

// Get returns a copy of the value visible under id. now is the caller's
// virtual clock, used for TTL expiry.
func (f *Fork) Get(id int, now int64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	value, err := f.lookup(id, now)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), value...), nil
}

// ValueSize returns the size in bytes of the value visible under id,
// with exactly Get's hit/miss/TTL bookkeeping but without copying the
// value out. It exists for cost models that price a hit by its payload
// size (the Memcached service): on that per-request path the Get copy
// was the last remaining allocation.
func (f *Fork) ValueSize(id int, now int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	value, err := f.lookup(id, now)
	return len(value), err
}

// Set stores value under id in the overlay with an optional expiry
// (virtual nanoseconds; 0 = never). The value is copied.
func (f *Fork) Set(id int, value []byte, expiresAt int64) error {
	return f.set(id, value, expiresAt, true)
}

// SetShared is Set without the defensive copy: the fork stores the given
// slice as-is, so the caller must guarantee it is never mutated for the
// fork's lifetime. Intended for writers whose values are views of a
// shared immutable buffer (the Memcached service's zero-filled payload
// backing), where the per-write copy was pure allocation churn.
func (f *Fork) SetShared(id int, value []byte, expiresAt int64) error {
	return f.set(id, value, expiresAt, false)
}

func (f *Fork) set(id int, value []byte, expiresAt int64, copyValue bool) error {
	if len(value) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(value))
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	if prev, _, ok := f.visible(id); ok {
		f.bytes += int64(len(value)) - int64(len(prev))
	} else {
		f.items++
		f.bytes += int64(len(value))
	}
	if copyValue {
		value = append([]byte(nil), value...)
	}
	f.overlay[id] = overlayEntry{value: value, expiresAt: expiresAt}
	return nil
}

// Delete removes id from the fork's view, reporting whether it was
// present. Base entries are masked with a tombstone; the base itself is
// never modified.
func (f *Fork) Delete(id int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()

	value, _, ok := f.visible(id)
	if !ok {
		return false
	}
	if f.base.has(id) {
		f.overlay[id] = overlayEntry{deleted: true}
	} else {
		delete(f.overlay, id)
	}
	f.items--
	f.bytes -= int64(len(value))
	return true
}

// Len returns the number of items the fork currently presents.
func (f *Fork) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.items
}

// Bytes returns the value bytes the fork currently presents.
func (f *Fork) Bytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes
}

// Dirty returns the number of overlay entries (writes, deletes and
// expiration tombstones) accumulated since the last Reset — the fork's
// memory cost beyond the shared base.
func (f *Fork) Dirty() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.overlay)
}

// Stats returns the fork's counters. Evictions is always zero: the base
// is frozen and the overlay is unbounded.
func (f *Fork) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{Hits: f.hits, Misses: f.misses, Expirations: f.expirations}
}

// Reset drops the overlay, returning the fork to the pristine snapshot
// state. It replaces the per-key restore loop a mutable store needs after
// a run: O(1) in the key-space size, O(dirty IDs) for the garbage
// collector. Counters are not cleared (they are lifetime statistics, as
// on Store).
func (f *Fork) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.overlay)
	f.items = len(f.base.entries)
	f.bytes = f.base.bytes
}
