package sim

import "math/bits"

// This file implements the engine's event queue: a deterministic
// hierarchical timer wheel in the style of Varghese &
// Lauck's hashed hierarchical timing wheels, tuned for a virtual-time
// discrete-event simulator.
//
// # Structure
//
// The wheel has wheelLevels levels, which split a deadline's bits
// between them from the lowest up. A level's buckets are
// 2^levelShift[l] virtual nanoseconds wide:
//
//	level 0      bits  0–5     64 buckets of 1 ns
//	level 1      bits  6–17    4096 buckets of 64 ns, spanning 262 µs
//	levels 2–9   bits 18–65    64 buckets each, 6 bits a level
//
// Ten levels cover the full non-negative int64 deadline range. Each
// bucket is an intrusive doubly-linked FIFO chain of events. A one-bit-
// per-bucket occupancy bitmap makes "find the earliest bucket" a
// TrailingZeros64 rather than a scan: one word per 64-bucket level, and
// for level 1 a summary word over its 64 bitmap words.
//
// Level 1 is wide because of where requests land. On the paper's
// Memcached unit (the paper-lp benchmark) an engine holds about 25
// pending events, most of them request events 4–65 µs ahead, and fires
// 6.6 of them per sample. With two 6-bit levels in place of level 1,
// 90.5% of pushes landed on the second, whose buckets are 4 µs wide and
// hold several events each, so 0.230 buckets cascaded per fired event.
// A prototype with uniform 8-bit levels did little better: their second
// level spans only 65 µs, so 31% of pushes still landed a level up and
// 0.134 buckets cascaded per fired event. Within one 262 µs span a
// request event sits alone in its 64 ns bucket, and only the 7.7% of
// pushes that cross a span boundary land on level 2: 0.038 buckets
// cascade per fired event. What matters is the span, not the bucket
// count.
//
// An event is bucketed by the most significant bit in which its
// deadline differs from the wheel's cursor (the deadline of the last
// event popped): the level is the one holding that bit, and the slot is
// the deadline's bits within the level,
//
//	slot = (deadline >> levelShift[level]) & (level's bucket count − 1)
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
// land on level 1 one to a 64 ns bucket. A lone event in the earliest
// bucket is the global minimum. An event on a higher level exceeds the
// cursor in a higher level's bits, where the lone event still equals the
// cursor; every later slot on the lone event's level starts after its
// bucket ends. So pop returns it directly and moves the cursor to its
// deadline. Every other event keeps a valid (level, slot), since the new
// cursor agrees with the old one in all bits above the lone event's
// level. That is the state cascading the event down level by level and
// popping it at level 0 reaches, without the cascades.
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
	wheelLevels = 10
	// wideLevel is the one 12-bit level; every other level is 6 bits.
	wideLevel   = 1
	wideSlots   = 1 << 12
	narrowSlots = 1 << 6
)

// levelShift[l] is the lowest deadline bit level l's slot index holds,
// and levelEnd[l] the bit above its highest: level l's buckets are
// 2^levelShift[l] ns wide, and an event on level l agrees with the
// cursor in every bit from levelEnd[l] up.
var (
	levelShift = [wheelLevels]uint8{0, 6, 18, 24, 30, 36, 42, 48, 54, 60}
	levelEnd   = [wheelLevels]uint8{6, 18, 24, 30, 36, 42, 48, 54, 60, 66}
)

// placement is where a deadline goes, given n = bits.Len64(deadline ^
// cursor), the position above the highest bit in which it differs from
// the cursor (0 when they are equal): the level holding that bit, the
// level's shift and its slot mask. placements is indexed by n, so place
// is one table load and no branch.
type placement struct {
	level, shift uint8
	mask         uint16
}

var placements = func() (t [65]placement) {
	for n := range t {
		l := 0
		for l < wheelLevels-1 && n > int(levelEnd[l]) {
			l++
		}
		shift := levelShift[l]
		t[n] = placement{level: uint8(l), shift: shift, mask: uint16(1)<<(levelEnd[l]-shift) - 1}
	}
	return t
}()

// wheelBucket is one slot's FIFO chain.
type wheelBucket struct {
	head, tail *event
}

// wheel is the engine's event queue. The zero value is a valid empty
// wheel: cursor at zero, all buckets empty.
//
// Occupancy metadata is kept compact and separate from the bucket
// arrays. levelMask has bit l set ⇔ level l holds an event. For a
// 64-bucket level, occupied[l] has bit i set ⇔ narrow[l][i] is
// non-empty. For the wide level, wideOcc[j] has bit i set ⇔
// wide[j·64+i] is non-empty, and occupied[wideLevel] has bit j set ⇔
// wideOcc[j] != 0. Every level's summary word sits in one array, so the
// earliest-bucket search reads adjacent words, and only a search that
// reaches the wide level reads one more. (A prototype with a 64-word
// bitmap for every level, one cache line each, read 3–6% slower on
// hdsearch-lp, whose engine is nearly idle.) narrow's row for the wide
// level is unused.
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
	wideOcc   [wideSlots / 64]uint64
	narrow    [wheelLevels][narrowSlots]wheelBucket
	wide      [wideSlots]wheelBucket

	cascades      uint64
	cascadeEvents uint64
	cascadeRuns   uint64
	cascadePushes uint64
}

// place returns the (level, slot) for deadline relative to the cursor.
func (w *wheel) place(deadline Time) (int, int) {
	p := placements[bits.Len64(uint64(deadline)^uint64(w.cursor))]
	return int(p.level), int(uint64(deadline)>>p.shift) & int(p.mask)
}

// bucket returns level l's bucket at slot.
func (w *wheel) bucket(l, slot int) *wheelBucket {
	if l == wideLevel {
		return &w.wide[slot&(wideSlots-1)]
	}
	return &w.narrow[l][slot&(narrowSlots-1)]
}

// first returns level l's lowest occupied slot; the level must hold an
// event.
func (w *wheel) first(l int) int {
	i := bits.TrailingZeros64(w.occupied[l])
	if l == wideLevel {
		i = i<<6 | bits.TrailingZeros64(w.wideOcc[i&63])
	}
	return i
}

// setSlot marks (l, slot) non-empty.
func (w *wheel) setSlot(l, slot int) {
	bit := slot
	if l == wideLevel {
		w.wideOcc[slot>>6&63] |= 1 << uint(slot&63)
		bit = slot >> 6
	}
	w.occupied[l] |= 1 << uint(bit&63)
	w.levelMask |= 1 << uint(l)
}

// clearSlot marks (l, slot) empty, dropping the level from the summary
// mask when it was the level's last occupied slot.
func (w *wheel) clearSlot(l, slot int) {
	bit := slot
	if l == wideLevel {
		word := &w.wideOcc[slot>>6&63]
		if *word &^= 1 << uint(slot&63); *word != 0 {
			return
		}
		bit = slot >> 6
	}
	if w.occupied[l] &^= 1 << uint(bit&63); w.occupied[l] == 0 {
		w.levelMask &^= 1 << uint(l)
	}
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
	b := w.bucket(l, slot)
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
	w.setSlot(l, slot)
	ev.lvl, ev.slot = int8(l), uint16(slot)
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
		slot := w.first(l)
		b := w.bucket(l, slot)
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
		start := w.bucketStart(l, slot)
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

// bucketStart returns the first instant of level l's bucket at slot in
// the cursor's current lap: the cursor's bits above the level, then the
// slot.
func (w *wheel) bucketStart(l, slot int) Time {
	high := uint64(w.cursor) &^ (uint64(1)<<levelEnd[l] - 1)
	return Time(high | uint64(slot)<<levelShift[l])
}

// cascadeChain redistributes a cascading bucket's chain against the
// already-advanced cursor, splicing maximal same-destination runs
// wholesale (see the wheel doc comment).
//
// Run detection: let (l2, s2) = place(first.deadline) and
// group = first.deadline >> levelShift[l2]. A later chain event e (all
// chain deadlines are ≥ cursor) lands in the same bucket iff
// e.deadline >> levelShift[l2] == group — equal high bits mean e agrees
// with first, and hence with the cursor, above level l2 and differs from
// the cursor inside level l2 exactly as first does, so place() yields
// the same (level, slot); unequal high bits differ from first somewhere
// at or above level l2's lowest bit, which forces a different slot or
// level. For l2 == 0 the test degenerates to deadline equality, matching
// the one-deadline-per-level-0-bucket invariant.
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
		lvl8, slot16 := int8(l2), uint16(s2)
		first, last := ev, ev
		first.lvl, first.slot = lvl8, slot16
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
				last.lvl, last.slot = lvl8, slot16
				n++
			}
		} else {
			shift2 := levelShift[l2]
			group := uint64(first.deadline) >> shift2
			for last.next != nil && uint64(last.next.deadline)>>shift2 == group {
				last = last.next
				last.lvl, last.slot = lvl8, slot16
				n++
			}
		}
		next := last.next
		w.cascadeEvents += n
		b := w.bucket(l2, s2)
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
		w.setSlot(l2, s2)
		w.cascadeRuns++
		ev = next
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
	b := w.bucket(l, w.first(l))
	min := b.head.deadline
	if l == 0 {
		return min, true
	}
	for ev := b.head.next; ev != nil; ev = ev.next {
		if ev.deadline < min {
			min = ev.deadline
		}
	}
	return min, true
}

func (w *wheel) remove(ev *event) {
	b := w.bucket(int(ev.lvl), int(ev.slot))
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
	for w.levelMask != 0 {
		l := bits.TrailingZeros16(w.levelMask)
		slot := w.first(l)
		b := w.bucket(l, slot)
		for ev := b.head; ev != nil; {
			next := ev.next
			ev.next, ev.prev = nil, nil
			release(ev)
			ev = next
		}
		b.head, b.tail = nil, nil
		w.clearSlot(l, slot)
	}
	w.count = 0
	w.cursor = 0
}
