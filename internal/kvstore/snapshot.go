// Package kvstore holds the simulated Memcached service's key space as a
// copy-on-write table of value sizes addressed by integer ID. The service
// prices each request from one number, the size of the value a GET finds
// or a SET writes, so that size is all an item keeps.
//
// A Snapshot is the immutable base, built once per key space; Fork
// derives cheap mutable overlays from it. That lets N concurrent
// Memcached experiment cells share one preloaded key space instead of N
// private copies: every cell forks the shared snapshot, and a run reset
// is "drop the overlay" instead of replaying the run's writes.
//
// Only the Snapshot is shared between goroutines. A Fork has one owner:
// each Memcached instance owns its fork, and one environment-pool worker
// or one shard drives that instance at a time, so a fork takes no lock.
package kvstore

import (
	"errors"
	"fmt"
)

// ErrTooLarge reports a value size outside [0, MaxValueSize].
var ErrTooLarge = errors.New("kvstore: value size outside the item size limit")

// MaxValueSize is the largest storable value, matching memcached's default
// 1 MiB item limit.
const MaxValueSize = 1 << 20

// checkSize rejects a value size outside [0, MaxValueSize].
func checkSize(size int) error {
	if uint(size) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	return nil
}

// Snapshot is an immutable table of value sizes, ID i holding sizes[i]
// for i in [0, len(sizes)). It carries no locks and is safe for unlimited
// concurrent readers, which is how sibling Forks use it.
type Snapshot struct {
	sizes []int32
}

// NewSnapshot freezes sizes, sizes[i] as the value size of ID i. It keeps
// the slice without copying it, so the caller must never modify it
// afterwards.
func NewSnapshot(sizes []int32) (*Snapshot, error) {
	for id, size := range sizes {
		if err := checkSize(int(size)); err != nil {
			return nil, fmt.Errorf("ID %d: %w", id, err)
		}
	}
	return &Snapshot{sizes: sizes}, nil
}

// Fork derives a mutable copy-on-write view: reads fall through to the
// snapshot, and writes land in a private overlay sized by the number of
// IDs actually written. One fork's writes are invisible to its siblings
// and to the base.
func (sn *Snapshot) Fork() *Fork {
	return &Fork{base: sn, overlay: make(map[int]int32)}
}

// Fork is a mutable overlay over an immutable Snapshot. An ID the base
// does not hold starts absent. A Fork is not safe for concurrent use: it
// belongs to the one goroutine that drives its Memcached instance, while
// sibling forks on other goroutines read the shared base freely.
type Fork struct {
	base    *Snapshot
	overlay map[int]int32
}

// Base returns the snapshot this fork overlays.
func (f *Fork) Base() *Snapshot { return f.base }

// ValueSize returns the size of the value the fork holds under id, and
// false when it holds none: id was never set in the fork since its last
// Reset and lies outside the base.
func (f *Fork) ValueSize(id int) (int, bool) {
	if size, ok := f.overlay[id]; ok {
		return int(size), true
	}
	if uint(id) < uint(len(f.base.sizes)) {
		return int(f.base.sizes[id]), true
	}
	return 0, false
}

// Set stores a value of size bytes under id in the fork's overlay. A
// size outside [0, MaxValueSize] is rejected and leaves the fork as it
// was.
func (f *Fork) Set(id, size int) error {
	if err := checkSize(size); err != nil {
		return err
	}
	f.overlay[id] = int32(size)
	return nil
}

// Reset drops the overlay, returning the fork to the snapshot's state. It
// replaces the per-key restore loop a mutable store needs after a run:
// O(1) in the key-space size, O(written IDs) for the garbage collector.
func (f *Fork) Reset() { clear(f.overlay) }
