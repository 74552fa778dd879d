package sim

import (
	"sync"
	"testing"
	"time"
)

// recordingSink collects typed dispatches for assertions.
type recordingSink struct {
	times []Time
	args  []EventArg
}

func (s *recordingSink) OnEvent(now Time, arg EventArg) {
	s.times = append(s.times, now)
	s.args = append(s.args, arg)
}

func TestTypedDispatchDeliversArg(t *testing.T) {
	e := NewEngine()
	s := &recordingSink{}
	payload := &struct{ v int }{v: 7}
	e.AfterSink(3*time.Microsecond, s, EventArg{Ptr: payload, U64: 42})
	e.AtSink(Time(1000), s, EventArg{U64: 1})
	e.Run()
	if len(s.times) != 2 {
		t.Fatalf("dispatched %d events, want 2", len(s.times))
	}
	if s.times[0] != Time(1000) || s.args[0].U64 != 1 {
		t.Errorf("first event: now=%v arg=%+v", s.times[0], s.args[0])
	}
	if s.times[1] != Time(3000) || s.args[1].U64 != 42 || s.args[1].Ptr != payload {
		t.Errorf("second event: now=%v arg=%+v", s.times[1], s.args[1])
	}
}

// TestTypedAndClosureShareFIFOOrder pins that the three scheduling forms
// share one FIFO sequence: AtSink, AfterSink(0) and AtSinkFrom(Now, Now),
// spread over two different sinks at one deadline, fire in scheduling
// order.
func TestTypedAndClosureShareFIFOOrder(t *testing.T) {
	e := NewEngine()
	e.RunUntil(Time(50))
	var order []int
	s := sinkFunc(func(_ Time, arg EventArg) { order = append(order, int(arg.U64)) })
	other := sinkFunc(func(_ Time, arg EventArg) { order = append(order, int(arg.U64)) })
	e.AtSink(Time(50), s, EventArg{U64: 0})
	e.AfterSink(0, other, EventArg{U64: 1})
	e.AtSinkFrom(e.Now(), e.Now(), s, EventArg{U64: 2})
	e.AtSink(Time(50), other, EventArg{U64: 3})
	e.AfterSink(0, s, EventArg{U64: 4})
	e.AtSinkFrom(e.Now(), e.Now(), other, EventArg{U64: 5})
	e.Run()
	if len(order) != 6 {
		t.Fatalf("fired %d events, want 6", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-form same-deadline order = %v, want scheduling order", order)
		}
	}
}

// sinkFunc adapts a func to EventSink for tests, the stand-in for
// scheduling a closure (a capturing func allocates; fine here).
type sinkFunc func(now Time, arg EventArg)

func (f sinkFunc) OnEvent(now Time, arg EventArg) { f(now, arg) }

func TestNilSinkPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil sink did not panic")
		}
	}()
	e.AtSink(Time(1), nil, EventArg{})
}

// TestCancelAfterFire pins ABA safety: once an event fires, its ID is
// stale, and canceling it must not touch the pooled slot's next occupant.
func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	id := e.AfterSink(time.Microsecond, &countSink{}, EventArg{})
	if !id.Valid() {
		t.Fatal("pending event ID reports invalid")
	}
	e.Run()
	if id.Valid() {
		t.Error("fired event ID still reports valid")
	}

	// The freed slot is reused by the next scheduling; the stale ID must
	// not cancel the new event.
	fired := false
	id2 := e.AfterSink(time.Microsecond, sinkFunc(func(Time, EventArg) { fired = true }), EventArg{})
	e.Cancel(id) // stale: different generation, same (reused) slot
	if !id2.Valid() {
		t.Fatal("stale cancel invalidated the slot's new occupant")
	}
	e.Run()
	if !fired {
		t.Error("event canceled through a stale ID from a previous occupant")
	}
}

// TestCancelAfterReuse drives a slot through several fire/cancel/reuse
// cycles and checks every retired ID stays inert.
func TestCancelAfterReuse(t *testing.T) {
	e := NewEngine()
	var stale []EventID
	fired := 0
	count := sinkFunc(func(Time, EventArg) { fired++ })
	for cycle := 0; cycle < 5; cycle++ {
		id := e.AfterSink(time.Microsecond, count, EventArg{})
		for _, s := range stale {
			e.Cancel(s) // must all be no-ops
			if s.Valid() {
				t.Fatalf("cycle %d: retired ID reports valid", cycle)
			}
		}
		if !id.Valid() {
			t.Fatalf("cycle %d: live ID reports invalid", cycle)
		}
		e.Run()
		stale = append(stale, id)
	}
	if fired != 5 {
		t.Errorf("fired %d of 5 events; a stale cancel hit a live event", fired)
	}

	// Canceled (never fired) events also retire their IDs.
	id := e.AfterSink(time.Microsecond, sinkFunc(func(Time, EventArg) { t.Error("canceled event fired") }), EventArg{})
	e.Cancel(id)
	if id.Valid() {
		t.Error("canceled event ID still valid")
	}
	e.Cancel(id) // double cancel: no-op
	replacement := e.AfterSink(time.Microsecond, &countSink{}, EventArg{})
	e.Cancel(id) // stale cancel against the reused slot: no-op
	if !replacement.Valid() {
		t.Error("stale cancel after cancel-reuse invalidated new event")
	}
	e.Run()
}

func TestCancelFromOwnHandlerIsNoop(t *testing.T) {
	e := NewEngine()
	var id EventID
	ran := false
	id = e.AfterSink(time.Microsecond, sinkFunc(func(Time, EventArg) {
		ran = true
		e.Cancel(id) // the event is firing: already retired, must no-op
	}), EventArg{})
	e.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	// The slot freed by the fired event must be reusable afterwards.
	again := false
	e.AfterSink(time.Microsecond, sinkFunc(func(Time, EventArg) { again = true }), EventArg{})
	e.Run()
	if !again {
		t.Error("slot unusable after self-cancel")
	}
}

// TestEngineResetReusesPool pins that Reset preserves the free list (no
// fresh allocations on the next run) while restoring run-visible state.
func TestEngineResetReusesPool(t *testing.T) {
	e := NewEngine()
	run := func() []Time {
		var fired []Time
		rec := sinkFunc(func(now Time, _ EventArg) { fired = append(fired, now) })
		for i := 1; i <= 50; i++ {
			e.AfterSink(time.Duration(i)*time.Microsecond, rec, EventArg{})
		}
		// Leave some events pending past the horizon, as real runs do.
		e.RunUntil(Time(0).Add(40 * time.Microsecond))
		return fired
	}
	first := run()
	grownAfterFirst := e.EventAllocs()
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatalf("reset engine: now=%v pending=%d fired=%d, want zeros", e.Now(), e.Pending(), e.Fired())
	}
	second := run()
	if e.EventAllocs() != grownAfterFirst {
		t.Errorf("second run allocated %d new events, want 0 (free-list reuse)",
			e.EventAllocs()-grownAfterFirst)
	}
	if len(first) != len(second) {
		t.Fatalf("runs fired %d vs %d events", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reset broke determinism at event %d: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestEngineReuseAcrossRunsParallel exercises independent engines being
// reset and reused concurrently, so the race detector would flag any
// accidentally shared pool state.
func TestEngineReuseAcrossRunsParallel(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine()
			s := &recordingSink{}
			for run := 0; run < 20; run++ {
				for i := 0; i < 100; i++ {
					e.AfterSink(time.Duration(i+1)*time.Nanosecond, s, EventArg{U64: uint64(i)})
				}
				e.Run()
				e.Reset()
			}
		}()
	}
	wg.Wait()
}

// TestTypedSchedulingZeroAllocSteadyState is the regression gate for the
// engine hot path: once the pool is warm, scheduling and firing typed
// events allocates nothing.
func TestTypedSchedulingZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	s := &recordingSink{}
	s.times = make([]Time, 0, 4096)
	s.args = make([]EventArg, 0, 4096)
	arg := EventArg{Ptr: s, U64: 9}
	// Warm the event pool.
	for i := 0; i < 64; i++ {
		e.AfterSink(time.Nanosecond, s, arg)
	}
	for e.Step() {
	}
	s.times, s.args = s.times[:0], s.args[:0]

	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterSink(time.Nanosecond, s, arg)
		e.Step()
		if len(s.times) > 2048 {
			s.times, s.args = s.times[:0], s.args[:0]
		}
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkEngineHotLoop contrasts a fresh capturing closure per event,
// scheduled through the sinkFunc adapter, with a long-lived typed sink on
// the schedule→fire hot loop. Run with -benchmem: the closure pays one
// allocation per event; the typed sink is 0 B/op in steady state.
func BenchmarkEngineHotLoop(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		e := NewEngine()
		n := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := i // captured: forces the per-event closure allocation real call sites pay
			e.AfterSink(time.Nanosecond, sinkFunc(func(Time, EventArg) { n += v }), EventArg{})
			e.Step()
		}
	})
	b.Run("typed", func(b *testing.B) {
		e := NewEngine()
		s := &countSink{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.AfterSink(time.Nanosecond, s, EventArg{U64: uint64(i)})
			e.Step()
		}
	})
}

type countSink struct{ n uint64 }

func (s *countSink) OnEvent(_ Time, arg EventArg) { s.n += arg.U64 }
