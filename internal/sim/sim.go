// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock with nanosecond resolution. Events
// scheduled for the same instant fire in the order they were scheduled
// (FIFO tie-breaking), which makes every simulation bit-reproducible for a
// given seed regardless of map iteration order or host scheduling.
//
// All timestamps and durations are virtual time: they have no relation to
// wall-clock time, so a two-minute experiment run completes in milliseconds
// of host time. This is what makes self-benchmarking noise (host OS jitter,
// GC pauses) irrelevant to the measured results.
//
// # Allocation-free scheduling
//
// Event objects live on an engine-internal free list: firing or canceling
// an event returns it to the list, and the next At/After reuses it, so
// steady-state scheduling performs zero heap allocations. EventIDs carry a
// generation counter so an ID that outlives its event's reuse can never
// cancel the slot's new occupant (ABA safety).
//
// The closure form (At/After with a Handler) still allocates one closure
// per call site capture; hot paths use the typed form (AtSink/AfterSink
// with an EventSink and an opaque EventArg), which allocates nothing when
// the sink is a pointer and the arg's Ptr field holds a pointer.
//
// # O(1) event scheduling
//
// Pending events live in a hierarchical timer wheel (wheel.go): schedule,
// cancel and fire are O(1) amortized at any pending-event population,
// where the historical binary min-heap paid O(log n) per operation — the
// dominant engine cost once hundreds of thousands of events are pending
// (million-QPS scenarios, hour-long virtual runs). Firing an event is one
// search of the wheel bounded by the run's limit, with no separate peek
// at the next deadline. The heap survives as a second implementation of
// the internal queue interface so differential tests can pin that the
// wheel fires events in byte-identical order; only the wheel is on the
// production path.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It is a distinct type from time.Duration to prevent mixing
// virtual instants with durations in arithmetic.
type Time int64

// Infinity is a sentinel virtual time later than any schedulable event.
const Infinity Time = math.MaxInt64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds reports t as fractional seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Microseconds reports t as fractional microseconds since simulation start.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string {
	return time.Duration(t).String()
}

// Handler is the callback attached to a scheduled event. It runs when the
// virtual clock reaches the event's deadline.
type Handler func(now Time)

// EventSink is the typed-dispatch alternative to Handler: a long-lived
// object whose OnEvent method is invoked with the opaque argument the
// event was scheduled with. Scheduling through a sink avoids the
// per-event closure allocation of the Handler form — the sink is built
// once (per run, per tier, per generator) and every event reuses it.
type EventSink interface {
	OnEvent(now Time, arg EventArg)
}

// EventArg is the opaque argument carried by a typed event. Ptr holds a
// pointer-shaped payload (storing a pointer in an interface does not
// allocate); U64 carries a scalar — callers typically pack an event-kind
// tag and small indices into it.
type EventArg struct {
	Ptr any
	U64 uint64
}

// event is a scheduled callback. Events are pooled: the zero event is a
// valid free-list entry, and gen counts how many times the slot has been
// recycled so stale EventIDs can be detected.
//
// An event is linked into exactly one pending-queue structure at a time:
// the heap uses index, the timer wheel uses the intrusive next/prev chain
// plus the (lvl, slot) bucket position.
type event struct {
	deadline Time
	at       Time   // schedule-origin instant: first tie-breaker among equal deadlines
	seq      uint64 // FIFO tie-breaker among equal (deadline, at)
	fn       Handler
	sink     EventSink
	arg      EventArg
	gen      uint64 // incremented on every release back to the free list
	index    int    // heap index, -1 once popped

	// Timer-wheel linkage: doubly linked bucket chain and the bucket the
	// event currently occupies (meaningful only while queued in a wheel).
	next, prev *event
	lvl        int8
	slot       uint8
}

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is never issued. IDs are generation-stamped: once the event
// fires or is canceled its slot may be reused, and the stale ID becomes
// inert — Cancel through it is a no-op and Valid reports false.
type EventID struct {
	ev  *event
	gen uint64
}

// Valid reports whether the ID still refers to a pending (scheduled, not
// yet fired or canceled) event. Under pooling this is the only stable
// meaning: after the event fires or is canceled, the slot may already
// belong to a different event, so a fired ID must read as invalid.
func (id EventID) Valid() bool { return id.ev != nil && id.ev.gen == id.gen }

// less reports whether a fires before b: the engine's total event order
// is (deadline, at, seq). For events scheduled through At/AtSink the
// origin instant `at` equals the clock at scheduling time, so seq order
// implies at order and the key collapses to the classic (deadline, seq)
// FIFO tie-break — byte-identical to the pre-`at` engine. The extra
// component only separates events scheduled *as of* an earlier instant
// (AtSinkFrom), which the sharded runtime uses to slot cross-shard
// hand-offs exactly where the single-engine run would have scheduled
// them.
func (a *event) less(b *event) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pendingQueue is the engine's set of scheduled events, totally ordered
// by (deadline, at, seq). Two implementations exist: the production
// hierarchical timer wheel (wheel.go, O(1) amortized per operation) and
// the binary min-heap reference (heapQueue below, O(log n)) retained so
// differential tests can pin that both fire events in identical order.
//
// Contract: pop(limit) removes and returns the (deadline, at, seq)-minimal
// event when its deadline is at most limit, and otherwise returns nil
// and keeps it queued; a push at or after the returned event's deadline
// — or, after a nil return, at or after limit — must stay valid.
// minDeadline reports the minimal deadline without popping and must not
// observably mutate; remove detaches an event known to be queued; drain
// empties the queue through the callback (in no particular order) and
// rewinds any internal clock so the queue is ready for a fresh run.
type pendingQueue interface {
	push(ev *event)
	pop(limit Time) *event
	minDeadline() (Time, bool)
	remove(ev *event)
	size() int
	drain(release func(*event))
}

// eventHeap is a min-heap ordered by (deadline, at, seq) — the
// reference pendingQueue implementation.
type eventHeap []*event

func (q eventHeap) Len() int { return len(q) }

func (q eventHeap) Less(i, j int) bool { return q[i].less(q[j]) }

func (q eventHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventHeap) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// heapQueue adapts eventHeap to the pendingQueue interface.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop(limit Time) *event {
	if len(q.h) == 0 || q.h[0].deadline > limit {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) minDeadline() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].deadline, true
}

func (q *heapQueue) remove(ev *event) { heap.Remove(&q.h, ev.index) }

func (q *heapQueue) size() int { return len(q.h) }

func (q *heapQueue) drain(release func(*event)) {
	for _, ev := range q.h {
		ev.index = -1
		release(ev)
	}
	q.h = q.h[:0]
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; the simulated world is single-clocked by design.
type Engine struct {
	now     Time
	queue   pendingQueue
	free    []*event // recycled event objects, LIFO
	nextSeq uint64
	fired   uint64
	grown   uint64 // events allocated fresh (free list empty)
}

// NewEngine returns an engine with the clock at zero and an empty queue,
// backed by the hierarchical timer wheel (the production event queue).
func NewEngine() *Engine {
	return &Engine{queue: newWheel()}
}

// newHeapEngine returns an engine on the binary-heap queue — the
// reference implementation the wheel is differential-tested and
// benchmarked against. Not a production path.
func newHeapEngine() *Engine {
	return &Engine{queue: &heapQueue{}}
}

// newLegacyCascadeEngine returns an engine on a wheel with cascade
// hysteresis disabled — the per-event cascade the hysteresis path is
// differential-tested and benchmarked against. Not a production path.
func newLegacyCascadeEngine() *Engine {
	return &Engine{queue: newWheelLegacyCascade()}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return e.queue.size() }

// Fired returns the total number of events that have executed.
func (e *Engine) Fired() uint64 { return e.fired }

// EventAllocs returns how many event objects the engine has allocated
// fresh (as opposed to reusing from the free list) over its lifetime.
// In steady state this stops growing — the regression tests pin it.
func (e *Engine) EventAllocs() uint64 { return e.grown }

// Reset returns the engine to its initial state — clock at zero, empty
// queue, sequence counter rezeroed — while keeping the event free list
// and queue capacity, so one engine can serve many runs without
// re-allocating its hot-path structures. A reset engine is
// indistinguishable from a fresh one to simulation code: the per-run
// event sequence (and thus FIFO tie-breaking) restarts identically.
func (e *Engine) Reset() {
	e.queue.drain(e.release)
	e.now = 0
	e.nextSeq = 0
	e.fired = 0
}

// alloc pops a recycled event or grows the pool by one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	e.grown++
	return &event{}
}

// release returns ev to the free list. Bumping the generation first makes
// every outstanding EventID for this slot stale, so a later Cancel through
// one cannot touch the slot's next occupant.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.sink = nil
	ev.arg = EventArg{}
	e.free = append(e.free, ev)
}

// schedule is the shared body of the scheduling forms. origin is the
// instant the event counts as scheduled at for tie-breaking — the
// current clock everywhere except AtSinkFrom.
func (e *Engine) schedule(origin, t Time, fn Handler, sink EventSink, arg EventArg) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.deadline = t
	ev.at = origin
	ev.seq = e.nextSeq
	ev.fn = fn
	ev.sink = sink
	ev.arg = arg
	e.nextSeq++
	e.queue.push(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// At schedules fn to run at the absolute virtual instant t. Scheduling in
// the past (t < Now) panics: in a DES that is always a logic bug, and
// silently clamping would corrupt causality.
func (e *Engine) At(t Time, fn Handler) EventID {
	if fn == nil {
		panic("sim: nil event handler")
	}
	return e.schedule(e.now, t, fn, nil, EventArg{})
}

// After schedules fn to run d after the current instant. Negative d panics.
func (e *Engine) After(d time.Duration, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// AtSink schedules sink.OnEvent(t, arg) at the absolute instant t — the
// typed, allocation-free counterpart of At. FIFO tie-breaking is shared
// with the closure form: events fire in scheduling order regardless of
// which form scheduled them.
func (e *Engine) AtSink(t Time, sink EventSink, arg EventArg) EventID {
	if sink == nil {
		panic("sim: nil event sink")
	}
	return e.schedule(e.now, t, nil, sink, arg)
}

// AtSinkFrom schedules sink.OnEvent(t, arg) with tie-breaking as of the
// instant origin instead of the current clock: among equal deadlines,
// events fire in (origin, scheduling order), and At/AtSink events count
// their own scheduling instant as origin. This is the sharded runtime's
// replay primitive — an event handed off across a shard boundary (or
// deferred within one) is scheduled later than the single-engine run
// would have scheduled it, and passing the original instant here puts
// it back in exactly the slot the single engine's FIFO tie-break would
// have given it. origin must not exceed the deadline; it may lie in the
// past.
func (e *Engine) AtSinkFrom(origin, t Time, sink EventSink, arg EventArg) EventID {
	if sink == nil {
		panic("sim: nil event sink")
	}
	if origin > t {
		panic(fmt.Sprintf("sim: schedule origin %v after deadline %v", origin, t))
	}
	return e.schedule(origin, t, nil, sink, arg)
}

// AfterSink schedules sink.OnEvent d after the current instant. Negative
// d panics.
func (e *Engine) AfterSink(d time.Duration, sink EventSink, arg EventArg) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtSink(e.now.Add(d), sink, arg)
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// has already fired or been canceled — including one whose slot has been
// reused by a newer event — is a no-op. Cancel is O(1) on the wheel
// (O(log n) on the reference heap) when the event is still queued.
func (e *Engine) Cancel(id EventID) {
	ev := id.ev
	// A matching generation implies the event is still queued: release —
	// the only way out of the queue — bumps the generation first.
	if ev == nil || ev.gen != id.gen {
		return
	}
	e.queue.remove(ev)
	e.release(ev)
}

// Step executes the earliest pending event and advances the clock to its
// deadline. It reports false when the queue is empty. The event object is
// recycled before its callback runs, so handlers scheduling new events
// reuse the slot immediately; the fired event's ID is already stale by
// the time the callback observes anything.
func (e *Engine) Step() bool { return e.fire(Infinity) }

// fire executes the earliest pending event if its deadline is at most
// limit and reports whether it did — the one body behind Step, Run,
// RunUntil and RunBefore.
func (e *Engine) fire(limit Time) bool {
	ev := e.queue.pop(limit)
	if ev == nil {
		return false
	}
	fn, sink, arg, deadline := ev.fn, ev.sink, ev.arg, ev.deadline
	e.release(ev)
	e.now = deadline
	e.fired++
	if sink != nil {
		sink.OnEvent(e.now, arg)
	} else {
		fn(e.now)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.fire(Infinity) {
	}
}

// RunUntil executes events with deadlines ≤ limit, then advances the clock
// to limit. Events scheduled beyond limit remain queued, and the clock
// parks on limit with events at limit still schedulable: the queue's
// bounded pop never moves its cursor past limit.
func (e *Engine) RunUntil(limit Time) {
	for e.fire(limit) {
	}
	if e.now < limit {
		e.now = limit
	}
}

// RunBefore executes events with deadlines strictly earlier than limit,
// then advances the clock to limit. It is the epoch primitive of the
// sharded runtime (shard.go): a shard granted the window [now, limit)
// fires exactly the events it owns inside it — RunUntil(limit-1)'s
// firing — and stops with its clock parked on the barrier instant so
// cross-shard events arriving *at* limit are still schedulable.
func (e *Engine) RunBefore(limit Time) {
	e.RunUntil(limit - 1)
	if e.now < limit {
		e.now = limit
	}
}

// RunFor executes events for a span of virtual time starting now.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now.Add(d))
}

// NextDeadline returns the earliest pending event's deadline, or
// Infinity when the queue is empty — the per-shard clock the sharded
// runtime's window computation takes the minimum over.
func (e *Engine) NextDeadline() Time {
	if d, ok := e.queue.minDeadline(); ok {
		return d
	}
	return Infinity
}

// Scheduled returns the number of events ever scheduled on this engine
// (the per-run sequence counter; Reset rezeroes it). It advances on
// every At/After/AtSink/AfterSink call, which makes it a watermark for
// "has anything been scheduled since": netmodel's link batching uses it
// to append to a pending flush only when no other event could have
// claimed a sequence number between the batch's entries — the condition
// under which batching is exactly order-preserving.
func (e *Engine) Scheduled() uint64 { return e.nextSeq }
