package sim

import (
	"container/heap"
	"math/bits"
	"time"
)

// This file holds the two oracles the timer wheel is tested and
// benchmarked against. Neither is compiled into the package:
//
//   - refEngine, a binary min-heap engine whose (deadline, at, seq)
//     comparator is written out here rather than borrowed from
//     event.less, so a fault in the wheel's ordering key shows up as a
//     divergence instead of being shared by both sides;
//   - wheel.popPerEvent, pop with the per-event cascade that
//     cascadeChain replaced, the baseline of the cascade tests.

// scheduler is the engine surface that dualDriver and the
// pending-population gates use; *Engine and *refEngine implement it.
type scheduler interface {
	Now() Time
	Pending() int
	AfterSink(d time.Duration, sink EventSink, arg EventArg) EventID
	AtSinkFrom(origin, t Time, sink EventSink, arg EventArg) EventID
	Cancel(id EventID)
	Step() bool
	Run()
	RunUntil(limit Time)
	RunBefore(limit Time)
	NextDeadline() Time
	Reset()
}

// refEngine is the reference engine: pending events in a container/heap,
// pooled on its own free list with the engine's generation bumps, so
// EventID.Valid and stale cancels read exactly as on the wheel engine.
// Cancel finds its event by a linear scan: nothing hot cancels.
type refEngine struct {
	now     Time
	pending refHeap
	free    []*event
	nextSeq uint64
}

// refHeap orders events by (deadline, at, seq).
type refHeap []*event

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.deadline != b.deadline:
		return a.deadline < b.deadline
	case a.at != b.at:
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return ev
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.pending) }

func (r *refEngine) release(ev *event) {
	ev.gen++
	ev.sink, ev.arg = nil, EventArg{}
	r.free = append(r.free, ev)
}

func (r *refEngine) AtSinkFrom(origin, t Time, sink EventSink, arg EventArg) EventID {
	var ev *event
	if n := len(r.free); n > 0 {
		ev, r.free = r.free[n-1], r.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.deadline, ev.at, ev.seq, ev.sink, ev.arg = t, origin, r.nextSeq, sink, arg
	r.nextSeq++
	heap.Push(&r.pending, ev)
	return EventID{ev: ev, gen: ev.gen}
}

func (r *refEngine) AfterSink(d time.Duration, sink EventSink, arg EventArg) EventID {
	return r.AtSinkFrom(r.now, r.now.Add(d), sink, arg)
}

func (r *refEngine) Cancel(id EventID) {
	if !id.Valid() {
		return
	}
	for i, ev := range r.pending {
		if ev == id.ev {
			heap.Remove(&r.pending, i)
			r.release(ev)
			return
		}
	}
}

// fire runs the minimal event if its deadline is at most limit.
func (r *refEngine) fire(limit Time) bool {
	if len(r.pending) == 0 || r.pending[0].deadline > limit {
		return false
	}
	ev := heap.Pop(&r.pending).(*event)
	sink, arg := ev.sink, ev.arg
	r.release(ev)
	r.now = ev.deadline
	sink.OnEvent(r.now, arg)
	return true
}

func (r *refEngine) Step() bool { return r.fire(Infinity) }

func (r *refEngine) Run() {
	for r.fire(Infinity) {
	}
}

func (r *refEngine) RunUntil(limit Time) {
	for r.fire(limit) {
	}
	r.now = max(r.now, limit)
}

func (r *refEngine) RunBefore(limit Time) {
	r.RunUntil(limit - 1)
	r.now = max(r.now, limit)
}

func (r *refEngine) NextDeadline() Time {
	if len(r.pending) == 0 {
		return Infinity
	}
	return r.pending[0].deadline
}

func (r *refEngine) Reset() {
	for _, ev := range r.pending {
		r.release(ev)
	}
	r.pending = r.pending[:0]
	r.now, r.nextSeq = 0, 0
}

// popPerEvent is pop with the per-event cascade: every event of a
// cascading bucket is unlinked and re-pushed on its own, where pop splices
// same-destination runs (cascadeChain). Placement, and so the cascade
// counters other than cascadeRuns, match pop's exactly.
func (w *wheel) popPerEvent(limit Time) *event {
	for {
		if w.levelMask == 0 {
			return nil
		}
		l := bits.TrailingZeros16(w.levelMask)
		slot := bits.TrailingZeros64(w.occupied[l])
		b := &w.levels[l][slot]
		if l == 0 || b.head == b.tail {
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
		for ev := head; ev != nil; {
			next := ev.next
			ev.next, ev.prev = nil, nil
			w.count--
			w.cascadeEvents++
			w.cascadePushes++
			w.push(ev)
			ev = next
		}
	}
}
