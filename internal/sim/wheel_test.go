package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// This file differential-tests the timer-wheel engine against the
// reference heap engine (refEngine, reference_test.go): the engine's
// observable behaviour — firing order, clocks, cancellation semantics —
// must be byte-identical between them. The random drivers below exercise
// schedule/cancel/reschedule interleavings, including stale-ID (ABA)
// cancels against recycled wheel slots, deferred-origin schedules and
// RunBefore windows (the sharded runtime's two primitives), and the
// pending-population benchmarks measure the O(log n) → O(1) win the
// wheel exists for.

// firing is one observed event execution.
type firing struct {
	at  Time
	tag int
}

// dualOp is one scripted queue operation, applied identically to both
// engines.
type dualOp struct {
	kind    int // 0 schedule, 1 cancel live, 2 cancel stale, 3 step, 4 runUntil, 5 reschedule, 6 deferred-origin schedule, 7 runBefore
	delay   time.Duration
	pick    int // index into live (cancel/reschedule) or retired (stale cancel) IDs; origin draw (6) or window choice (7)
	horizon time.Duration
}

// genOps builds a deterministic random op script. Delays are drawn from
// mixed magnitudes (same-tick collisions up to multi-millisecond jumps)
// so events land on every wheel level and same-deadline FIFO ordering is
// exercised hard.
func genOps(rng *rand.Rand, n int) []dualOp {
	ops := make([]dualOp, n)
	for i := range ops {
		op := dualOp{kind: weightedKind(rng)}
		switch rng.Intn(4) {
		case 0:
			op.delay = time.Duration(rng.Intn(4)) // same-tick pileups
		case 1:
			op.delay = time.Duration(rng.Intn(2000)) * time.Nanosecond
		case 2:
			op.delay = time.Duration(rng.Intn(200)) * time.Microsecond
		default:
			op.delay = time.Duration(rng.Intn(8)) * time.Millisecond
		}
		op.pick = rng.Int()
		op.horizon = time.Duration(1+rng.Intn(500)) * time.Microsecond
		ops[i] = op
	}
	return ops
}

func weightedKind(rng *rand.Rand) int {
	switch v := rng.Intn(100); {
	case v < 38:
		return 0 // schedule
	case v < 46:
		return 6 // schedule as of an origin in [0, Now] — sharded hand-off
	case v < 55:
		return 1 // cancel a live event
	case v < 62:
		return 2 // cancel a stale (fired/canceled) ID — ABA probe
	case v < 78:
		return 3 // step
	case v < 86:
		return 4 // run until a horizon
	case v < 92:
		return 7 // run before a window bound — sharded epoch
	default:
		return 5 // reschedule: cancel live + schedule replacement
	}
}

// dualDriver applies an op script to one engine and records its firings.
type dualDriver struct {
	e       scheduler
	fired   []firing
	live    []EventID
	liveTag []int
	retired []EventID
	nextTag int
}

func (d *dualDriver) OnEvent(now Time, arg EventArg) {
	d.fired = append(d.fired, firing{at: now, tag: int(arg.U64)})
}

func (d *dualDriver) schedule(delay time.Duration) {
	d.track(d.e.AfterSink(delay, d, EventArg{U64: uint64(d.nextTag)}))
}

// scheduleFrom schedules delay after now with tie-breaking as of origin
// (AtSinkFrom), the way the sharded runtime adopts hand-offs.
func (d *dualDriver) scheduleFrom(origin Time, delay time.Duration) {
	d.track(d.e.AtSinkFrom(origin, d.e.Now().Add(delay), d, EventArg{U64: uint64(d.nextTag)}))
}

func (d *dualDriver) track(id EventID) {
	d.live = append(d.live, id)
	d.liveTag = append(d.liveTag, d.nextTag)
	d.nextTag++
}

// compact drops IDs whose events have fired, moving them to the retired
// list (stale-cancel fodder). Called between ops so the live list stays
// meaningful.
func (d *dualDriver) compact() {
	keep := d.live[:0]
	keepTag := d.liveTag[:0]
	for i, id := range d.live {
		if id.Valid() {
			keep = append(keep, id)
			keepTag = append(keepTag, d.liveTag[i])
		} else {
			d.retired = append(d.retired, id)
		}
	}
	d.live, d.liveTag = keep, keepTag
}

func (d *dualDriver) apply(op dualOp) {
	d.compact()
	switch op.kind {
	case 0:
		d.schedule(op.delay)
	case 1:
		if len(d.live) > 0 {
			i := op.pick % len(d.live)
			d.e.Cancel(d.live[i])
			d.retired = append(d.retired, d.live[i])
			d.live = append(d.live[:i], d.live[i+1:]...)
			d.liveTag = append(d.liveTag[:i], d.liveTag[i+1:]...)
		}
	case 2:
		if len(d.retired) > 0 {
			// Stale cancel: the slot may have been recycled by a newer
			// event — a no-op on both queues (generation check), and on
			// the wheel specifically it must not unlink the slot's new
			// occupant from its bucket chain.
			d.e.Cancel(d.retired[op.pick%len(d.retired)])
		}
	case 3:
		d.e.Step()
	case 4:
		d.e.RunUntil(d.e.Now().Add(op.horizon))
	case 5:
		if len(d.live) > 0 {
			i := op.pick % len(d.live)
			d.e.Cancel(d.live[i])
			d.retired = append(d.retired, d.live[i])
			d.live = append(d.live[:i], d.live[i+1:]...)
			d.liveTag = append(d.liveTag[:i], d.liveTag[i+1:]...)
			d.schedule(op.delay)
		}
	case 6:
		now := d.e.Now()
		d.scheduleFrom(Time(uint64(op.pick)%(uint64(now)+1)), op.delay)
	case 7:
		// Every other window ends exactly on the next pending deadline,
		// which must stay queued.
		limit := d.e.Now().Add(op.horizon)
		if nd := d.e.NextDeadline(); op.pick%2 == 0 && nd != Infinity {
			limit = nd
		}
		d.e.RunBefore(limit)
	}
}

// TestWheelHeapIdenticalOrder is the determinism pin for the wheel: for
// randomized schedule/cancel/reschedule/run interleavings (deferred-origin
// schedules and RunBefore windows included), the wheel engine fires
// exactly the events the reference heap engine fires, at the same
// instants, in the same order.
func TestWheelHeapIdenticalOrder(t *testing.T) {
	seeds := 40
	opsPerSeed := 1500
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		ops := genOps(rand.New(rand.NewSource(int64(seed))), opsPerSeed)
		wheelD := &dualDriver{e: NewEngine()}
		heapD := &dualDriver{e: &refEngine{}}
		for i, op := range ops {
			wheelD.apply(op)
			heapD.apply(op)
			if wheelD.e.Now() != heapD.e.Now() {
				t.Fatalf("seed %d op %d: clocks diverge: wheel %v heap %v", seed, i, wheelD.e.Now(), heapD.e.Now())
			}
			if wheelD.e.Pending() != heapD.e.Pending() {
				t.Fatalf("seed %d op %d: pending diverge: wheel %d heap %d", seed, i, wheelD.e.Pending(), heapD.e.Pending())
			}
		}
		// Drain both completely.
		wheelD.e.Run()
		heapD.e.Run()
		if len(wheelD.fired) != len(heapD.fired) {
			t.Fatalf("seed %d: wheel fired %d events, heap %d", seed, len(wheelD.fired), len(heapD.fired))
		}
		for i := range wheelD.fired {
			if wheelD.fired[i] != heapD.fired[i] {
				t.Fatalf("seed %d: firing %d diverges: wheel %+v heap %+v",
					seed, i, wheelD.fired[i], heapD.fired[i])
			}
		}
	}
}

// TestWheelHeapIdenticalAcrossReset extends the differential pin across
// Engine.Reset: a reset wheel engine (recycled events, rewound cursor)
// must replay a schedule identically to a reset heap engine.
func TestWheelHeapIdenticalAcrossReset(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		ops := genOps(rand.New(rand.NewSource(int64(1000+seed))), 600)
		wheelD := &dualDriver{e: NewEngine()}
		heapD := &dualDriver{e: &refEngine{}}
		for round := 0; round < 3; round++ {
			wheelD.fired, heapD.fired = nil, nil
			wheelD.live, wheelD.liveTag, wheelD.retired = nil, nil, nil
			heapD.live, heapD.liveTag, heapD.retired = nil, nil, nil
			wheelD.nextTag, heapD.nextTag = 0, 0
			for _, op := range ops {
				wheelD.apply(op)
				heapD.apply(op)
			}
			wheelD.e.RunUntil(wheelD.e.Now().Add(time.Millisecond))
			heapD.e.RunUntil(heapD.e.Now().Add(time.Millisecond))
			if len(wheelD.fired) != len(heapD.fired) {
				t.Fatalf("seed %d round %d: wheel fired %d, heap %d", seed, round, len(wheelD.fired), len(heapD.fired))
			}
			for i := range wheelD.fired {
				if wheelD.fired[i] != heapD.fired[i] {
					t.Fatalf("seed %d round %d: firing %d diverges", seed, round, i)
				}
			}
			// Reset with events still pending: both engines recycle and
			// must replay the next round identically.
			wheelD.e.Reset()
			heapD.e.Reset()
		}
	}
}

// maxFuzzOps bounds a decoded fuzz script, and fuzzMaxDeadline every
// deadline and run limit it reaches: far below Infinity, so no decoded
// delay overflows the clock.
const (
	maxFuzzOps      = 512
	fuzzMaxDeadline = Time(1) << 62
)

// encodeOps writes an op script in the form decodeOps reads: per op, the
// kind byte, then delay, pick and horizon as uvarints.
func encodeOps(ops []dualOp) []byte {
	var buf []byte
	for _, op := range ops {
		buf = append(buf, byte(op.kind))
		buf = binary.AppendUvarint(buf, uint64(op.delay))
		buf = binary.AppendUvarint(buf, uint64(op.pick))
		buf = binary.AppendUvarint(buf, uint64(op.horizon))
	}
	return buf
}

// decodeOps reads an op script from any byte string, stopping at the
// first truncated field or after maxFuzzOps ops. The kind byte is taken
// mod 8, so every op kind occurs; a uvarint's length picks the magnitude
// of a delay or horizon, from same-tick to the wheel's top level; pick
// is masked non-negative. A duplicated op is a same-deadline burst, and
// kind 6 a deferred origin.
func decodeOps(data []byte) []dualOp {
	field := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	var ops []dualOp
	for len(data) > 0 && len(ops) < maxFuzzOps {
		kind := int(data[0] % 8)
		data = data[1:]
		delay, ok1 := field()
		pick, ok2 := field()
		horizon, ok3 := field()
		if !ok1 || !ok2 || !ok3 {
			break
		}
		ops = append(ops, dualOp{
			kind:    kind,
			delay:   time.Duration(min(delay, uint64(fuzzMaxDeadline))),
			pick:    int(pick & math.MaxInt64),
			horizon: time.Duration(min(horizon, uint64(fuzzMaxDeadline))),
		})
	}
	return ops
}

// TestDecodeOpsRoundTrip pins that the fuzz seeds decode to the scripts
// they encode.
func TestDecodeOpsRoundTrip(t *testing.T) {
	for _, ops := range [][]dualOp{
		genOps(rand.New(rand.NewSource(1)), 300),
		genDeepOps(rand.New(rand.NewSource(7001)), 300),
	} {
		if got := decodeOps(encodeOps(ops)); !slices.Equal(got, ops) {
			t.Fatalf("decoded %d ops, want the %d encoded", len(got), len(ops))
		}
	}
}

// matchReference fails t unless the wheel engine and the reference
// engine agree on the clock, the pending count and every firing so far.
func matchReference(t *testing.T, op int, wheelD, refD *dualDriver) {
	t.Helper()
	if wheelD.e.Now() != refD.e.Now() || wheelD.e.Pending() != refD.e.Pending() {
		t.Fatalf("op %d: wheel now %v pending %d, reference now %v pending %d",
			op, wheelD.e.Now(), wheelD.e.Pending(), refD.e.Now(), refD.e.Pending())
	}
	if len(wheelD.fired) != len(refD.fired) {
		t.Fatalf("op %d: wheel fired %d events, reference %d", op, len(wheelD.fired), len(refD.fired))
	}
	for i := range refD.fired {
		if wheelD.fired[i] != refD.fired[i] {
			t.Fatalf("op %d: firing %d diverges: wheel %+v reference %+v", op, i, wheelD.fired[i], refD.fired[i])
		}
	}
}

// FuzzEngineMatchesReference runs a decoded op script on the wheel
// engine and the reference heap engine and compares them after every op
// and after a final drain. The seeds are the TestWheelBoundedPopParksCursor
// shape under both run primitives and prefixes of the genOps and
// genDeepOps scripts.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, run := range []dualOp{{kind: 4, horizon: 5000}, {kind: 7, pick: 1, horizon: 5000}} {
		f.Add(encodeOps([]dualOp{{kind: 0, delay: 6096}, {kind: 0, delay: 6097}, run, {kind: 0}, {kind: 6, pick: 2500}}))
	}
	for seed := int64(0); seed < 3; seed++ {
		f.Add(encodeOps(genOps(rand.New(rand.NewSource(seed)), 200)))
		f.Add(encodeOps(genDeepOps(rand.New(rand.NewSource(7000+seed)), 200)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wheelD := &dualDriver{e: NewEngine()}
		refD := &dualDriver{e: &refEngine{}}
		for i, op := range decodeOps(data) {
			// The clocks agree after every op, so both engines see the
			// same clamp.
			room := time.Duration(fuzzMaxDeadline - wheelD.e.Now())
			op.delay, op.horizon = min(op.delay, room), min(op.horizon, room)
			wheelD.apply(op)
			refD.apply(op)
			matchReference(t, i, wheelD, refD)
		}
		wheelD.e.Run()
		refD.e.Run()
		matchReference(t, -1, wheelD, refD)
	})
}

// TestWheelDeepDeadlines pins placement and cascading for deadlines that
// land on the wheel's top levels: hour-scale and day-scale deltas (the
// hour-long preset regime) interleaved with nanosecond traffic.
func TestWheelDeepDeadlines(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := sinkFunc(func(now Time, _ EventArg) { got = append(got, now) })
	e.AfterSink(24*time.Hour, rec, EventArg{})
	e.AfterSink(time.Nanosecond, rec, EventArg{})
	e.AfterSink(time.Hour, rec, EventArg{})
	e.AfterSink(3*time.Microsecond, rec, EventArg{})
	e.AfterSink(time.Hour, rec, EventArg{}) // same deep deadline: FIFO pair
	e.Run()
	want := []Time{
		Time(0).Add(time.Nanosecond),
		Time(0).Add(3 * time.Microsecond),
		Time(0).Add(time.Hour),
		Time(0).Add(time.Hour),
		Time(0).Add(24 * time.Hour),
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestWheelBoundedPopParksCursor pins the "bucket start ≤ limit" guard of
// the wheel's bounded pop. Two events at 6096 and 6097 share a level-2
// bucket starting at 4096 — at or below the 5000 limit, while the
// earliest deadline is above it. Cascading that bucket lands both in one
// level-1 bucket starting at 6080, beyond the limit; cascading it too
// would move the cursor past the clock the run parks on limit, and
// scheduling at Now would panic with "push behind cursor". After the
// run, an event at Now and one handed off as of an earlier origin must
// be accepted and fire first, in the reference heap's order.
func TestWheelBoundedPopParksCursor(t *testing.T) {
	const limit = Time(5000)
	for _, run := range []struct {
		name string
		fn   func(scheduler, Time)
	}{
		{"RunUntil", scheduler.RunUntil},
		{"RunBefore", scheduler.RunBefore},
	} {
		t.Run(run.name, func(t *testing.T) {
			var fired [2][]firing
			for i, e := range []scheduler{NewEngine(), &refEngine{}} {
				d := &dualDriver{e: e}
				d.schedule(6096)
				d.schedule(6097)
				engine, isWheel := e.(*Engine)
				if isWheel && d.live[0].ev.lvl != 2 {
					t.Fatalf("6096 placed on level %d, want 2", d.live[0].ev.lvl)
				}
				run.fn(e, limit)
				if e.Now() != limit || len(d.fired) != 0 {
					t.Fatalf("after the run: now %v, fired %v; want %v and nothing", e.Now(), d.fired, limit)
				}
				d.schedule(0)              // AtSink(Now())
				d.scheduleFrom(limit/2, 0) // AtSinkFrom(origin < Now, Now())
				if isWheel && engine.queue.cascades != 1 {
					t.Fatalf("the run cascaded %d buckets, want 1: the level-2 bucket, not the level-1 one it fed", engine.queue.cascades)
				}
				e.Run()
				fired[i] = d.fired
			}
			want := []firing{{limit, 3}, {limit, 2}, {6096, 0}, {6097, 1}}
			for i, name := range []string{"wheel", "heap"} {
				if len(fired[i]) != len(want) {
					t.Fatalf("%s fired %v, want %v", name, fired[i], want)
				}
				for j := range want {
					if fired[i][j] != want[j] {
						t.Fatalf("%s fired %v, want %v", name, fired[i], want)
					}
				}
			}
		})
	}
}

// pendingBench runs the steady-state schedule+fire loop with a constant
// pending population of n events: every Step that fires the earliest
// event is paired with a schedule that replaces it, deltas drawn from a
// deterministic xorshift so both engines (and every run) see the
// identical schedule. Both are driven through the scheduler interface,
// so each pays the same indirect call per operation. Deltas mirror the
// simulator's real mix — mostly µs-scale per-request timers churning
// over a standing population spread across a wide horizon (in-flight
// requests, hiccups, run-end timers). The population is what separates
// the queues: the heap pays O(log n) per operation, the wheel O(1)
// amortized.
func pendingBench(b *testing.B, e scheduler, n int) {
	b.Helper()
	s := &countSink{}
	// Mean inter-deadline spacing of 1µs at any population keeps the
	// deadline density realistic for the simulator's µs-scale traffic.
	horizon := uint64(n) * 1000
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	delta := func() time.Duration {
		v := next()
		if v&7 == 0 {
			return time.Duration(1 + v%horizon) // far timer: run-end, hiccup
		}
		return time.Duration(1 + v%64_000) // near timer: µs-scale request event
	}
	for i := 0; i < n; i++ {
		e.AfterSink(time.Duration(1+next()%horizon), s, EventArg{U64: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.AfterSink(delta(), s, EventArg{U64: 1})
	}
	b.StopTimer()
	if e.Pending() != n {
		b.Fatalf("population drifted: %d pending, want %d", e.Pending(), n)
	}
}

func benchmarkEnginePending(b *testing.B, n int) {
	b.Run("wheel", func(b *testing.B) { pendingBench(b, NewEngine(), n) })
	b.Run("heap", func(b *testing.B) { pendingBench(b, &refEngine{}, n) })
}

// BenchmarkEnginePending{1k,100k,1M} measure one schedule+fire at a
// steady pending population — the regime the ROADMAP's million-QPS and
// hour-long scenarios put the engine in (pending ≈ in-flight requests ×
// per-request timers). Run with -benchmem: both paths must be 0 B/op in
// steady state.
func BenchmarkEnginePending1k(b *testing.B)   { benchmarkEnginePending(b, 1_000) }
func BenchmarkEnginePending100k(b *testing.B) { benchmarkEnginePending(b, 100_000) }
func BenchmarkEnginePending1M(b *testing.B)   { benchmarkEnginePending(b, 1_000_000) }

// measurePending times one steady-state schedule+fire at population n
// via the benchmark harness and reports ns/op and bytes/op.
func measurePending(newEngine func() scheduler, n int) (nsPerOp float64, bytesPerOp int64) {
	res := testing.Benchmark(func(b *testing.B) { pendingBench(b, newEngine(), n) })
	return float64(res.T.Nanoseconds()) / float64(res.N), res.AllocedBytesPerOp()
}

func newWheelEngine() scheduler { return NewEngine() }
func newRefEngine() scheduler   { return &refEngine{} }

// TestWheelFasterThanHeapAt100kPending is the acceptance gate for the
// wheel: at a 100k pending population, schedule+fire must be at least 2×
// faster than the reference heap (measured 2.6–3.7×; the 2× bar
// absorbs host noise) with zero steady-state allocations. Retries absorb
// scheduler hiccups on loaded CI hosts.
func TestWheelFasterThanHeapAt100kPending(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: skipped in -short")
	}
	const n = 100_000
	var wheelNs, heapNs float64
	for attempt := 0; attempt < 3; attempt++ {
		var wheelB, heapB int64
		wheelNs, wheelB = measurePending(newWheelEngine, n)
		heapNs, heapB = measurePending(newRefEngine, n)
		if wheelB != 0 || heapB != 0 {
			t.Fatalf("steady state allocates: wheel %d B/op, heap %d B/op, want 0", wheelB, heapB)
		}
		if heapNs >= 2*wheelNs {
			t.Logf("pending=100k: wheel %.1f ns/op, heap %.1f ns/op (%.1f×)", wheelNs, heapNs, heapNs/wheelNs)
			return
		}
	}
	t.Errorf("pending=100k: wheel %.1f ns/op vs heap %.1f ns/op — below the 2× bar", wheelNs, heapNs)
}

// TestWheelNoSlowerThanHeapAt1kPending guards the small-population end:
// the wheel's constant factor must not regress the common case where the
// heap's O(log n) is still cheap. The 1.15 tolerance absorbs run-to-run
// host noise; the wheel typically wins outright here too.
func TestWheelNoSlowerThanHeapAt1kPending(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: skipped in -short")
	}
	const n = 1_000
	var wheelNs, heapNs float64
	for attempt := 0; attempt < 3; attempt++ {
		wheelNs, _ = measurePending(newWheelEngine, n)
		heapNs, _ = measurePending(newRefEngine, n)
		if wheelNs <= heapNs*1.15 {
			t.Logf("pending=1k: wheel %.1f ns/op, heap %.1f ns/op", wheelNs, heapNs)
			return
		}
	}
	t.Errorf("pending=1k: wheel %.1f ns/op vs heap %.1f ns/op — wheel slower than the heap at small populations", wheelNs, heapNs)
}
