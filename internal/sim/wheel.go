package sim

import "math/bits"

// This file implements the engine's event queue: a deterministic
// hierarchical timer wheel in the style of Varghese &
// Lauck's hashed hierarchical timing wheels, tuned for a virtual-time
// discrete-event simulator.
//
// # Structure
//
// The wheel has wheelLevels levels of wheelSlots buckets each. Level l
// buckets have a granularity of 2^(l·wheelBits) virtual nanoseconds, so
// level 0 resolves single ticks, level 1 groups of 64 ticks, and so on;
// eleven 64-slot levels cover the full non-negative int64 deadline range.
// Each bucket is an intrusive doubly-linked FIFO chain of events, and
// each level keeps a one-bit-per-slot occupancy bitmap, so "find the
// earliest bucket" is a TrailingZeros64 per level rather than a scan.
//
// An event is bucketed by the most significant bit group in which its
// deadline differs from the wheel's cursor (the deadline of the last
// event popped):
//
//	level = index of highest differing bit / wheelBits
//	slot  = (deadline >> (level·wheelBits)) & (wheelSlots-1)
//
// Because deadlines never precede the cursor (the engine rejects
// scheduling in the past, and the cursor trails the engine clock), the
// chosen slot is always strictly ahead of the cursor's position at that
// level, within the same lap — slot indices are never ambiguous across
// laps, so no per-lap epoch bookkeeping is needed.
//
// # Operation costs
//
// push and cancel are O(1): a chain append/unlink plus a bitmap update.
// pop finds the lowest occupied slot of the lowest occupied level. If
// that level is 0, or the bucket holds a single event, the bucket's head
// is the minimum and pop is O(1) (see "Lone buckets" below). Otherwise
// the bucket is cascaded — its chain is re-pushed against the cursor
// advanced to the bucket's start, landing every event at a strictly
// lower level — and the search repeats. Each event cascades at most
// wheelLevels-1 times over its life regardless of the pending
// population, so schedule/fire is O(1) amortized where a binary heap
// pays O(log n) per operation with cache-hostile pointer chasing.
//
// # Lone buckets
//
// Sparse traffic leaves most buckets above level 0 holding one event:
// requests a few microseconds apart scheduled tens of microseconds ahead
// land on level 2 and reach level 1 one to a bucket. A lone event in the
// earliest bucket is the global minimum. An event on a higher level
// exceeds the cursor in a higher bit group, where the lone event still
// equals the cursor; every later slot on the lone event's level starts
// after its bucket ends. So pop returns it directly and moves the cursor
// to its deadline. Every other event keeps a valid (level, slot), since
// the new cursor agrees with the old one in all bit groups above the
// lone event's level. That is the state cascading the event down level
// by level and popping it at level 0 reaches, without the cascades.
//
// # Bounded pops
//
// pop(limit) returns nil, leaving the event queued, when the minimum
// deadline exceeds limit, and cascades a bucket only when the bucket's
// start is at most limit. The cursor therefore never passes limit on a
// pop that fires nothing, so the engine clock may park on limit
// (RunUntil, RunBefore) and accept events scheduled at it. The "is the
// next event due?" test thus rides on the search pop makes anyway, and
// no run loop peeks with minDeadline before it pops.
//
// # Determinism
//
// The engine's contract is that events fire in exact (deadline, at, seq)
// order — schedule-origin instant, then FIFO — and the wheel preserves
// it by keeping every bucket chain sorted by that key:
//
//   - Two events with the same deadline always occupy the same bucket:
//     bucket choice is a function of (deadline, cursor), and the cursor
//     moves monotonically between pops, so equal deadlines can never be
//     split across buckets at the moment either is placed.
//   - Buckets above level 0 append in push order, exactly as before —
//     their internal order never reaches pop directly, because a
//     higher-level bucket holding several events is always cascaded
//     first (a lone event has no order to keep). A level-0 bucket
//     holds a single deadline value and is what pop drains, so level-0
//     pushes insert in (at, seq) order, walking back from the tail. For
//     events scheduled "as of now" — every event outside the sharded
//     runtime's deferred hand-offs — the key is non-decreasing in push
//     order (at equals the monotone clock and seq breaks ties) and a
//     cascade re-pushes same-deadline events in already-keyed order, so
//     the walk terminates at the tail in one comparison and push stays
//     the append it always was. A deferred-origin event walks past at
//     most the same-deadline events scheduled since its origin instant.
//
// A level-0 bucket therefore holds exactly one deadline value in
// (at, seq) order, and draining its head is a (deadline, at, seq)-minimal
// pop — pinned by the differential tests in wheel_test.go against a
// reference heap with its own comparator, and by every figure golden
// downstream.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 11 // 11 × 6 bits ≥ 63-bit deadlines
)

// wheelBucket is one slot's FIFO chain.
type wheelBucket struct {
	head, tail *event
}

// wheel is the engine's event queue. The zero value is a valid empty
// wheel: cursor at zero, all buckets empty.
//
// Occupancy metadata is kept compact and separate from the bucket
// arrays: occupied[l] has bit i set ⇔ levels[l][i] is non-empty, and
// levelMask has bit l set ⇔ occupied[l] != 0. The earliest-bucket search
// is then two TrailingZeros on adjacent words instead of a strided walk
// over the (64 KB-scale) bucket arrays.
//
// # Cascade hysteresis
//
// A cascading bucket's chain is highly clustered in practice: phase
// programs and batch arrivals schedule many events at the same or
// adjacent deep deadlines, so after the cursor advances, long runs of
// consecutive chain events target the *same* destination bucket.
// cascadeChain detects maximal such runs — the run cursor (level, slot,
// deadline group) is recomputed only when the group changes, never
// re-walking settled events — and splices each run onto its destination
// with one O(1) link operation and one bitmap OR instead of a full
// place()+push per event. Firing order is unchanged:
// a run shares one bucket by construction, splicing preserves the
// chain-internal order that per-event pushes would have produced, and
// level-0 runs fall back to keyed per-event pushes whenever splicing
// could violate a drain bucket's (at, seq) order (see cascadeChain).
//
// The cascade* counters are instrumentation for tests and benchmarks
// (they never influence behavior): cascades counts bucket splits,
// cascadeEvents chain events walked, cascadeRuns wholesale splices, and
// cascadePushes events re-pushed individually.
type wheel struct {
	cursor    Time // deadline of the last popped event (or last cascade origin)
	count     int
	levelMask uint16
	occupied  [wheelLevels]uint64
	levels    [wheelLevels][wheelSlots]wheelBucket

	cascades      uint64
	cascadeEvents uint64
	cascadeRuns   uint64
	cascadePushes uint64
}

// place returns the (level, slot) for deadline relative to the cursor.
func (w *wheel) place(deadline Time) (int, int) {
	diff := uint64(deadline) ^ uint64(w.cursor)
	if diff == 0 {
		return 0, int(uint64(deadline) & wheelMask)
	}
	l := (63 - bits.LeadingZeros64(diff)) / wheelBits
	return l, int((uint64(deadline) >> (l * wheelBits)) & wheelMask)
}

func (w *wheel) push(ev *event) {
	if ev.deadline < w.cursor {
		// The engine clock trails no pending deadline and the cursor
		// trails the engine clock, so this is unreachable from the
		// Engine API; guard it because a behind-cursor placement would
		// silently corrupt firing order.
		panic("sim: timer wheel push behind cursor")
	}
	l, slot := w.place(ev.deadline)
	b := &w.levels[l][slot]
	if l == 0 && b.tail != nil && ev.less(b.tail) {
		// Keyed insert into the drain-order bucket (see the Determinism
		// comment): only a deferred-origin event ever takes this path, and
		// it walks past at most the same-deadline events scheduled since
		// its origin instant.
		after := b.tail.prev
		for after != nil && ev.less(after) {
			after = after.prev
		}
		if after == nil {
			ev.prev = nil
			ev.next = b.head
			b.head.prev = ev
			b.head = ev
		} else {
			ev.prev = after
			ev.next = after.next
			after.next.prev = ev
			after.next = ev
		}
	} else {
		ev.prev = b.tail
		ev.next = nil
		if b.tail == nil {
			b.head = ev
		} else {
			b.tail.next = ev
		}
		b.tail = ev
	}
	w.occupied[l] |= 1 << uint(slot)
	w.levelMask |= 1 << uint(l)
	ev.lvl, ev.slot = int8(l), uint8(slot)
	w.count++
}

// pop removes and returns the minimal event if its deadline is at most
// limit, and returns nil otherwise (see "Bounded pops").
func (w *wheel) pop(limit Time) *event {
	for {
		if w.levelMask == 0 {
			return nil
		}
		l := bits.TrailingZeros16(w.levelMask)
		slot := bits.TrailingZeros64(w.occupied[l])
		b := &w.levels[l][slot]
		if l == 0 || b.head == b.tail {
			// A level-0 bucket holds a single deadline in (at, seq) order,
			// and a lone event in the earliest bucket is below every other
			// deadline (see "Lone buckets"): either way the head is the
			// global minimum.
			ev := b.head
			if ev.deadline > limit {
				return nil
			}
			b.head = ev.next
			if b.head == nil {
				b.tail = nil
				w.clearSlot(l, slot)
			} else {
				b.head.prev = nil
			}
			ev.next, ev.prev = nil, nil
			w.count--
			w.cursor = ev.deadline
			return ev
		}
		// Cascade: advance the cursor to the bucket's start instant (≤
		// every deadline it holds, > every deadline already fired) and
		// redistribute the chain; each event lands at a level < l. A
		// bucket starting beyond limit holds nothing due, and cascading
		// it would move the cursor past the instant the clock parks at.
		shift := uint(l * wheelBits)
		high := uint64(w.cursor) &^ (uint64(1)<<(shift+wheelBits) - 1)
		start := Time(high | uint64(slot)<<shift)
		if start > limit {
			return nil
		}
		head := b.head
		b.head, b.tail = nil, nil
		w.clearSlot(l, slot)
		w.cursor = start
		w.cascades++
		w.cascadeChain(head)
	}
}

// cascadeChain redistributes a cascading bucket's chain against the
// already-advanced cursor, splicing maximal same-destination runs
// wholesale (see the wheel doc comment).
//
// Run detection: let (l2, s2) = place(first.deadline) and
// group = first.deadline >> (l2·wheelBits). A later chain event e (all
// chain deadlines are ≥ cursor) lands in the same bucket iff
// e.deadline >> (l2·wheelBits) == group — equal high bits mean e agrees
// with first, and hence with the cursor, above group l2 and differs from
// the cursor inside group l2 exactly as first does, so place() yields
// the same (level, slot); unequal high bits differ from first somewhere
// at or above group l2, which forces a different slot or level. For
// l2 == 0 the test degenerates to deadline equality, matching the
// one-deadline-per-level-0-bucket invariant.
//
// Order: buckets above level 0 are append-order, so splicing a run onto
// the tail is exactly what per-event pushes would build. A level-0
// bucket must stay in (at, seq) drain order, so a level-0 run is spliced
// only when it is internally sorted and its first event does not precede
// the bucket's tail; otherwise — only deferred-origin (AtSinkFrom)
// events ever violate this — the run falls back to per-event keyed
// pushes. Splicing moves events without un/re-linking, so count is
// untouched; the fallback pre-decrements per event because push
// re-increments.
func (w *wheel) cascadeChain(head *event) {
	for ev := head; ev != nil; {
		l2, s2 := w.place(ev.deadline)
		lvl8, slot8 := int8(l2), uint8(s2)
		first, last := ev, ev
		first.lvl, first.slot = lvl8, slot8
		sorted := true
		n := uint64(1)
		if l2 == 0 {
			// Same level-0 bucket ⇔ same deadline; (at, seq) order must
			// be tracked for the drain-order check below.
			for last.next != nil && last.next.deadline == first.deadline {
				if sorted && last.next.less(last) {
					sorted = false
				}
				last = last.next
				last.lvl, last.slot = lvl8, slot8
				n++
			}
		} else {
			shift2 := uint(l2 * wheelBits)
			group := uint64(first.deadline) >> shift2
			for last.next != nil && uint64(last.next.deadline)>>shift2 == group {
				last = last.next
				last.lvl, last.slot = lvl8, slot8
				n++
			}
		}
		next := last.next
		w.cascadeEvents += n
		b := &w.levels[l2][s2]
		if l2 == 0 && (!sorted || (b.tail != nil && first.less(b.tail))) {
			// push overwrites the lvl/slot set optimistically above.
			for e := first; ; {
				en := e.next
				e.next, e.prev = nil, nil
				w.count--
				w.cascadePushes++
				w.push(e)
				if e == last {
					break
				}
				e = en
			}
			ev = next
			continue
		}
		last.next = nil
		first.prev = b.tail
		if b.tail == nil {
			b.head = first
		} else {
			b.tail.next = first
		}
		b.tail = last
		w.occupied[l2] |= 1 << uint(s2)
		w.levelMask |= 1 << uint(l2)
		w.cascadeRuns++
		ev = next
	}
}

// clearSlot marks (l, slot) empty, dropping the level from the summary
// mask when it was the level's last occupied slot.
func (w *wheel) clearSlot(l, slot int) {
	w.occupied[l] &^= 1 << uint(slot)
	if w.occupied[l] == 0 {
		w.levelMask &^= 1 << uint(l)
	}
}

// minDeadline reports the earliest pending deadline without mutating the
// wheel: the lowest occupied slot of the lowest occupied level bounds the
// minimum, and for level 0 the bucket's single deadline is exact. For a
// higher-level bucket the chain is scanned. Firing never calls it — pop
// takes the limit itself — so the scan is paid only by NextDeadline, once
// per sharded epoch.
func (w *wheel) minDeadline() (Time, bool) {
	if w.levelMask == 0 {
		return 0, false
	}
	l := bits.TrailingZeros16(w.levelMask)
	slot := bits.TrailingZeros64(w.occupied[l])
	b := &w.levels[l][slot]
	if l == 0 {
		return b.head.deadline, true
	}
	min := b.head.deadline
	for ev := b.head.next; ev != nil; ev = ev.next {
		if ev.deadline < min {
			min = ev.deadline
		}
	}
	return min, true
}

func (w *wheel) remove(ev *event) {
	b := &w.levels[ev.lvl][ev.slot]
	if ev.prev == nil {
		b.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		b.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if b.head == nil {
		w.clearSlot(int(ev.lvl), int(ev.slot))
	}
	ev.next, ev.prev = nil, nil
	w.count--
}

func (w *wheel) drain(release func(*event)) {
	for l := range w.levels {
		for w.occupied[l] != 0 {
			slot := bits.TrailingZeros64(w.occupied[l])
			b := &w.levels[l][slot]
			for ev := b.head; ev != nil; {
				next := ev.next
				ev.next, ev.prev = nil, nil
				release(ev)
				ev = next
			}
			b.head, b.tail = nil, nil
			w.clearSlot(l, slot)
		}
	}
	w.count = 0
	w.cursor = 0
}
