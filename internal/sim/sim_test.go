package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine pending = %d, want 0", e.Pending())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired Time = -1
	e.AfterSink(5*time.Microsecond, sinkFunc(func(now Time, _ EventArg) { fired = now }), EventArg{})
	e.Run()
	if fired != Time(5000) {
		t.Errorf("event fired at %v, want 5µs", fired)
	}
	if e.Now() != Time(5000) {
		t.Errorf("clock = %v, want 5µs", e.Now())
	}
}

func TestEventOrderingByDeadline(t *testing.T) {
	e := NewEngine()
	var order []int
	s := sinkFunc(func(_ Time, arg EventArg) { order = append(order, int(arg.U64)) })
	e.AfterSink(30*time.Nanosecond, s, EventArg{U64: 3})
	e.AfterSink(10*time.Nanosecond, s, EventArg{U64: 1})
	e.AfterSink(20*time.Nanosecond, s, EventArg{U64: 2})
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.AtSink(Time(42), sinkFunc(func(Time, EventArg) { order = append(order, i) }), EventArg{})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-deadline events fired out of scheduling order at %d: got %d", i, v)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.AfterSink(time.Microsecond, sinkFunc(func(Time, EventArg) { fired = true }), EventArg{})
	e.Cancel(id)
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Cancel of an already-canceled event must be a no-op.
	e.Cancel(id)
	// Cancel of the zero ID must be a no-op.
	e.Cancel(EventID{})
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var fired []int
	var ids []EventID
	for i := 0; i < 10; i++ {
		i := i
		ids = append(ids, e.AfterSink(time.Duration(i+1)*time.Microsecond, sinkFunc(func(Time, EventArg) {
			fired = append(fired, i)
		}), EventArg{}))
	}
	e.Cancel(ids[3])
	e.Cancel(ids[7])
	e.Run()
	if len(fired) != 8 {
		t.Fatalf("fired %d events, want 8", len(fired))
	}
	for _, v := range fired {
		if v == 3 || v == 7 {
			t.Errorf("canceled event %d fired", v)
		}
	}
}

func TestEventSchedulingFromHandler(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick sinkFunc
	tick = func(now Time, _ EventArg) {
		ticks = append(ticks, now)
		if len(ticks) < 5 {
			e.AfterSink(time.Millisecond, tick, EventArg{})
		}
	}
	e.AfterSink(time.Millisecond, tick, EventArg{})
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, tk := range ticks {
		want := Time(int64(i+1) * 1e6)
		if tk != want {
			t.Errorf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := sinkFunc(func(now Time, _ EventArg) { fired = append(fired, now) })
	for i := 1; i <= 10; i++ {
		e.AfterSink(time.Duration(i)*time.Second, rec, EventArg{})
	}
	e.RunUntil(Time(4_500_000_000))
	if len(fired) != 4 {
		t.Fatalf("fired %d events before limit, want 4", len(fired))
	}
	if e.Now() != Time(4_500_000_000) {
		t.Errorf("clock after RunUntil = %v, want 4.5s", e.Now())
	}
	if e.Pending() != 6 {
		t.Errorf("pending after RunUntil = %d, want 6", e.Pending())
	}
	e.Run()
	if len(fired) != 10 {
		t.Errorf("after Run, fired = %d, want 10", len(fired))
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Second)
	if e.Now() != Time(1e9) {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
	e.RunFor(time.Second)
	if e.Now() != Time(2e9) {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	s := &countSink{}
	e.AfterSink(time.Second, s, EventArg{})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.AtSink(Time(1), s, EventArg{})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.AfterSink(-time.Second, &countSink{}, EventArg{})
}

// TestNilHandlerPanics pins AtSinkFrom's two argument checks, which the
// sharded runtime's hand-offs rely on: a nil sink and an origin after
// the deadline each panic.
func TestNilHandlerPanics(t *testing.T) {
	for _, tc := range []struct {
		name       string
		origin, at Time
		sink       EventSink
	}{
		{"nil sink", 0, 10, nil},
		{"origin after deadline", 11, 10, &countSink{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			defer func() {
				if recover() == nil {
					t.Errorf("AtSinkFrom(%v, %v) with %s did not panic", tc.origin, tc.at, tc.name)
				}
			}()
			e.AtSinkFrom(tc.origin, tc.at, tc.sink, EventArg{})
		})
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	s := &countSink{}
	for i := 0; i < 25; i++ {
		e.AfterSink(time.Duration(i)*time.Microsecond, s, EventArg{})
	}
	e.Run()
	if e.Fired() != 25 {
		t.Errorf("Fired() = %d, want 25", e.Fired())
	}
}

func TestTimeArithmetic(t *testing.T) {
	var base Time = 1000
	got := base.Add(2 * time.Microsecond)
	if got != 3000 {
		t.Errorf("Add = %v, want 3000", got)
	}
	if got.Sub(base) != 2*time.Microsecond {
		t.Errorf("Sub = %v, want 2µs", got.Sub(base))
	}
	if Time(2.5e9).Seconds() != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", Time(2.5e9).Seconds())
	}
	if Time(1500).Microseconds() != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", Time(1500).Microseconds())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing deadline order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		ok := true
		check := sinkFunc(func(now Time, _ EventArg) {
			if now < last {
				ok = false
			}
			last = now
		})
		for _, d := range delays {
			e.AfterSink(time.Duration(d)*time.Nanosecond, check, EventArg{})
		}
		e.Run()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: two engines fed the same schedule produce identical firing
// sequences (determinism).
func TestPropertyDeterminism(t *testing.T) {
	f := func(delays []uint16) bool {
		run := func() []Time {
			e := NewEngine()
			var seq []Time
			rec := sinkFunc(func(now Time, _ EventArg) { seq = append(seq, now) })
			for _, d := range delays {
				e.AfterSink(time.Duration(d)*time.Nanosecond, rec, EventArg{})
			}
			e.Run()
			return seq
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterSink(time.Nanosecond, sinkFunc(func(Time, EventArg) {}), EventArg{})
		e.Step()
	}
}
