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
// Events are scheduled on an EventSink with an opaque EventArg
// (AtSink/AfterSink/AtSinkFrom), which allocates nothing when the sink is
// a pointer and the arg's Ptr field holds a pointer. Event objects live on
// an engine-internal free list: firing or canceling an event returns it
// to the list, and the next schedule reuses it, so steady-state
// scheduling performs zero heap allocations. EventIDs carry a generation
// counter so an ID that outlives its event's reuse can never cancel the
// slot's new occupant (ABA safety).
//
// # O(1) event scheduling
//
// Pending events live in a hierarchical timer wheel (wheel.go): schedule,
// cancel and fire are O(1) amortized at any pending-event population,
// where a binary min-heap pays O(log n) per operation — the dominant
// engine cost once hundreds of thousands of events are pending
// (million-QPS scenarios, hour-long virtual runs). Firing an event is one
// search of the wheel bounded by the run's limit, with no separate peek
// at the next deadline.
package sim

import (
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

// EventSink is a long-lived object whose OnEvent method is invoked with
// the opaque argument the event was scheduled with. The sink is built once
// (per run, per tier, per generator) and every event reuses it, so
// scheduling allocates nothing per event.
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

// event is a scheduled sink dispatch. Events are pooled: the zero event
// is a valid free-list entry, and gen counts how many times the slot has
// been recycled so stale EventIDs can be detected. While queued, an event
// sits in one timer-wheel bucket: next/prev link the bucket's chain and
// (lvl, slot) name the bucket.
type event struct {
	deadline Time
	at       Time   // schedule-origin instant: first tie-breaker among equal deadlines
	seq      uint64 // FIFO tie-breaker among equal (deadline, at)
	sink     EventSink
	arg      EventArg
	gen      uint64 // incremented on every release back to the free list

	next, prev *event
	lvl        int8
	slot       uint16
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
// is (deadline, at, seq). For events scheduled through AtSink/AfterSink
// the origin instant `at` equals the clock at scheduling time, so seq
// order implies at order and the key collapses to the classic
// (deadline, seq) FIFO tie-break — byte-identical to the pre-`at`
// engine. The extra component only separates events scheduled *as of* an
// earlier instant (AtSinkFrom), which the sharded runtime uses to slot
// cross-shard hand-offs exactly where the single-engine run would have
// scheduled them.
func (a *event) less(b *event) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; the simulated world is single-clocked by design. The
// zero Engine is ready to use: clock at zero, empty wheel. The wheel's
// bucket arrays make an engine about 75 KB, so keep one across runs and
// Reset it rather than building one per run.
type Engine struct {
	now     Time
	free    []*event // recycled event objects, LIFO
	nextSeq uint64
	fired   uint64
	grown   uint64 // events allocated fresh (free list empty)
	queue   wheel
}

// NewEngine returns an engine with the clock at zero and no pending
// events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return e.queue.count }

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
	ev.sink = nil
	ev.arg = EventArg{}
	e.free = append(e.free, ev)
}

// schedule is the shared body of the scheduling forms. origin is the
// instant the event counts as scheduled at for tie-breaking — the
// current clock everywhere except AtSinkFrom.
func (e *Engine) schedule(origin, t Time, sink EventSink, arg EventArg) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.deadline = t
	ev.at = origin
	ev.seq = e.nextSeq
	ev.sink = sink
	ev.arg = arg
	e.nextSeq++
	e.queue.push(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// AtSink schedules sink.OnEvent(t, arg) at the absolute instant t.
// Scheduling in the past (t < Now) panics: in a DES that is always a
// logic bug, and silently clamping would corrupt causality. Events with
// equal deadlines fire in scheduling order, whichever sink they target.
func (e *Engine) AtSink(t Time, sink EventSink, arg EventArg) EventID {
	if sink == nil {
		panic("sim: nil event sink")
	}
	return e.schedule(e.now, t, sink, arg)
}

// AtSinkFrom schedules sink.OnEvent(t, arg) with tie-breaking as of the
// instant origin instead of the current clock: among equal deadlines,
// events fire in (origin, scheduling order), and AtSink/AfterSink events
// count their own scheduling instant as origin. This is the sharded
// runtime's replay primitive — an event handed off across a shard
// boundary (or deferred within one) is scheduled later than the
// single-engine run would have scheduled it, and passing the original
// instant here puts it back in exactly the slot the single engine's FIFO
// tie-break would have given it. origin must not exceed the deadline; it
// may lie in the past.
func (e *Engine) AtSinkFrom(origin, t Time, sink EventSink, arg EventArg) EventID {
	if sink == nil {
		panic("sim: nil event sink")
	}
	if origin > t {
		panic(fmt.Sprintf("sim: schedule origin %v after deadline %v", origin, t))
	}
	return e.schedule(origin, t, sink, arg)
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
// reused by a newer event — is a no-op. Cancel is O(1) when the event is
// still queued.
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
	sink, arg, deadline := ev.sink, ev.arg, ev.deadline
	e.release(ev)
	e.now = deadline
	e.fired++
	sink.OnEvent(deadline, arg)
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
