package sim

import (
	"math/rand"
	"testing"
	"time"
)

// This file pins the cascade-hysteresis path (wheel.go cascadeChain):
// deep-horizon schedules spanning every wheel level, phase-program-shaped
// batch bursts at far deadlines, a differential property test against
// the reference heap engine, a cascade-work assertion proving hysteresis
// splices where the per-event cascade (popPerEvent, reference_test.go)
// re-pushes, and the dense-deep-horizon benchmark with its ≥1.5× gate —
// plus the opposite regime, a sparse near horizon whose lone buckets pop
// without cascading.

// genDeepOps builds an op script whose delays are drawn per wheel level:
// a random level l ∈ [0, 11) and a delay in [2^(6l), 2^min(6l+6, 62)),
// so schedules land on every level including the top (decade-scale
// virtual deltas). A third of schedules extend a burst — a run of
// identical far delays back to back, the shape a phase-program batch
// arrival or an autoscaler tick fan-out produces — so cascades see long
// same-deadline chains. A quarter of a burst's events are handed off as
// of an earlier origin, so those chains reach level 0 out of
// (at, seq) order.
func genDeepOps(rng *rand.Rand, n int) []dualOp {
	ops := make([]dualOp, 0, n)
	for len(ops) < n {
		op := dualOp{kind: weightedKind(rng)}
		op.pick = rng.Int()
		op.horizon = time.Duration(1+rng.Intn(500)) * time.Microsecond
		if op.kind == 0 || op.kind == 5 || op.kind == 6 {
			l := rng.Intn(wheelLevels)
			lo := uint(6 * l)
			hi := uint(6*l + 6)
			if hi > 62 {
				hi = 62
			}
			span := int64(1)<<hi - int64(1)<<lo
			op.delay = time.Duration(int64(1)<<lo + rng.Int63n(span))
			if op.kind == 0 && l >= 3 && rng.Intn(3) == 0 {
				// Burst: replicate the same far deadline 8–128 times.
				for burst := 8 + rng.Intn(120); burst > 0 && len(ops) < n; burst-- {
					burstOp := op
					if rng.Intn(4) == 0 {
						burstOp.kind, burstOp.pick = 6, rng.Int()
					}
					ops = append(ops, burstOp)
				}
				continue
			}
		} else {
			op.delay = time.Duration(1+rng.Intn(2000)) * time.Nanosecond
		}
		ops = append(ops, op)
	}
	return ops
}

// TestWheelDeepHorizonDifferential runs the deep-horizon script op by op
// on the wheel engine and the reference heap engine: clocks, pending
// counts, and the complete firing sequence must be identical, and the
// wheel must have actually exercised the splice path (otherwise the test
// proves nothing about hysteresis).
func TestWheelDeepHorizonDifferential(t *testing.T) {
	seeds := 25
	opsPerSeed := 1200
	if testing.Short() {
		seeds = 6
	}
	splices := uint64(0)
	for seed := 0; seed < seeds; seed++ {
		ops := genDeepOps(rand.New(rand.NewSource(int64(7000+seed))), opsPerSeed)
		engine := NewEngine()
		wheelD := &dualDriver{e: engine}
		heapD := &dualDriver{e: &refEngine{}}
		for i, op := range ops {
			wheelD.apply(op)
			heapD.apply(op)
			if wheelD.e.Now() != heapD.e.Now() {
				t.Fatalf("seed %d op %d: clocks diverge: wheel %v heap %v",
					seed, i, wheelD.e.Now(), heapD.e.Now())
			}
			if wheelD.e.Pending() != heapD.e.Pending() {
				t.Fatalf("seed %d op %d: pending diverge: wheel %d heap %d",
					seed, i, wheelD.e.Pending(), heapD.e.Pending())
			}
		}
		wheelD.e.Run()
		heapD.e.Run()
		if len(wheelD.fired) != len(heapD.fired) {
			t.Fatalf("seed %d: fired wheel %d heap %d", seed, len(wheelD.fired), len(heapD.fired))
		}
		for i := range heapD.fired {
			if wheelD.fired[i] != heapD.fired[i] {
				t.Fatalf("seed %d: firing %d diverges: wheel %+v heap %+v",
					seed, i, wheelD.fired[i], heapD.fired[i])
			}
		}
		splices += engine.queue.cascadeRuns
	}
	if splices == 0 {
		t.Fatal("deep-horizon script never took the splice path — workload not exercising hysteresis")
	}
}

// denseDriver drives a steady-state batch workload through a bare wheel:
// each iteration schedules one batch of same-deadline events at a far
// (millisecond-to-seconds) horizon and pops one whole batch — the
// phase-program spike shape, which makes every event cascade down
// several levels in long same-deadline runs before firing. perEvent
// pops through popPerEvent instead of pop, so both cascades run the same
// schedule with nothing but the wheel in between. Events are pooled on a
// free list of its own, and construction primes a standing population
// of 64 batches so iterations are allocation-free steady state.
type denseDriver struct {
	w        wheel
	perEvent bool
	free     []*event
	now      Time
	seq      uint64
	batch    int
	rng      uint64
}

func newDenseDriver(perEvent bool, batch int) *denseDriver {
	d := &denseDriver{perEvent: perEvent, batch: batch, rng: 0x9E3779B97F4A7C15}
	for i := 0; i < 64; i++ {
		d.scheduleBatch()
	}
	return d
}

func (d *denseDriver) far() time.Duration {
	d.rng ^= d.rng << 13
	d.rng ^= d.rng >> 7
	d.rng ^= d.rng << 17
	// 4 ms floor keeps every batch at least ~4 levels deep; the 2 h
	// span reaches level 7 (hour-long timers). Cascade work dominates
	// push/pop.
	return 4*time.Millisecond + time.Duration(d.rng%uint64(2*time.Hour))
}

func (d *denseDriver) scheduleBatch() {
	deadline := d.now.Add(d.far())
	for j := 0; j < d.batch; j++ {
		var ev *event
		if n := len(d.free); n > 0 {
			ev, d.free = d.free[n-1], d.free[:n-1]
		} else {
			ev = &event{}
		}
		ev.deadline, ev.at, ev.seq = deadline, d.now, d.seq
		d.seq++
		d.w.push(ev)
	}
}

// iter is one steady-state step: schedule one batch, pop one batch.
func (d *denseDriver) iter() {
	d.scheduleBatch()
	for j := 0; j < d.batch; j++ {
		var ev *event
		if d.perEvent {
			ev = d.w.popPerEvent(Infinity)
		} else {
			ev = d.w.pop(Infinity)
		}
		d.now = ev.deadline
		d.free = append(d.free, ev)
	}
}

// TestWheelCascadeHysteresisReducesWork is the cascade-count assertion:
// on the dense-deep-horizon workload both cascades perform identical
// bucket splits and walk identical chains (hysteresis never changes
// placement), but pop re-pushes almost nothing — same-deadline runs are
// spliced — where popPerEvent re-pushes every walked event.
func TestWheelCascadeHysteresisReducesWork(t *testing.T) {
	prod := newDenseDriver(false, 256)
	legacy := newDenseDriver(true, 256)
	for i := 0; i < 200; i++ {
		prod.iter()
		legacy.iter()
	}
	if prod.now != legacy.now || prod.w.count != legacy.w.count {
		t.Fatalf("wheels diverge: now %v vs %v, pending %d vs %d",
			prod.now, legacy.now, prod.w.count, legacy.w.count)
	}
	pw, lw := &prod.w, &legacy.w
	if pw.cascades != lw.cascades || pw.cascadeEvents != lw.cascadeEvents {
		t.Fatalf("cascade structure diverges: splits %d vs %d, events walked %d vs %d",
			pw.cascades, lw.cascades, pw.cascadeEvents, lw.cascadeEvents)
	}
	if lw.cascadePushes != lw.cascadeEvents {
		t.Fatalf("per-event cascade spliced: %d pushes for %d walked", lw.cascadePushes, lw.cascadeEvents)
	}
	if pw.cascadeRuns == 0 {
		t.Fatal("hysteresis wheel never spliced a run")
	}
	if pw.cascadePushes*10 > lw.cascadePushes {
		t.Errorf("hysteresis re-pushed %d of %d walked events (legacy re-pushed all %d) — want <10%%",
			pw.cascadePushes, pw.cascadeEvents, lw.cascadePushes)
	}
	t.Logf("cascades=%d walked=%d: hysteresis spliced %d runs, re-pushed %d; legacy re-pushed %d",
		pw.cascades, pw.cascadeEvents, pw.cascadeRuns, pw.cascadePushes, lw.cascadePushes)
}

func benchmarkCascadeDense(b *testing.B, perEvent bool) {
	d := newDenseDriver(perEvent, 256)
	// Start from steady state: the event pool grows by ~30 KB over the
	// first batches, which at the N a slow host picks reads as 1 B/op.
	for i := 0; i < 64; i++ {
		d.iter()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.iter()
	}
}

// BenchmarkCascadeDense measures one schedule+pop batch (256 events at
// one far deadline) on the dense-deep-horizon workload — the regime
// phase-program spikes and hour-long timers put the wheel in, where
// cascade cost dominates: hysteresis pops through pop, legacy through
// popPerEvent.
func BenchmarkCascadeDense(b *testing.B) {
	b.Run("hysteresis", func(b *testing.B) { benchmarkCascadeDense(b, false) })
	b.Run("legacy", func(b *testing.B) { benchmarkCascadeDense(b, true) })
}

// TestWheelCascadeHysteresisFaster is the PR 9 wheel gate: on the
// dense-deep-horizon workload, cascade hysteresis must be ≥1.5× faster
// than the per-event cascade (measured 2.0–3.6× on the bare wheel; the
// 1.5× bar absorbs host noise — retries absorb scheduler hiccups on
// loaded CI hosts), allocation-free on both paths.
func TestWheelCascadeHysteresisFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing/alloc gate: skipped under -race (instrumentation skews both)")
	}
	measure := func(perEvent bool) (float64, int64) {
		res := testing.Benchmark(func(b *testing.B) { benchmarkCascadeDense(b, perEvent) })
		return float64(res.T.Nanoseconds()) / float64(res.N), res.AllocedBytesPerOp()
	}
	var hystNs, legacyNs float64
	for attempt := 0; attempt < 3; attempt++ {
		var hystB, legacyB int64
		hystNs, hystB = measure(false)
		legacyNs, legacyB = measure(true)
		if hystB != 0 || legacyB != 0 {
			t.Fatalf("steady state allocates: hysteresis %d B/op, legacy %d B/op, want 0", hystB, legacyB)
		}
		if legacyNs >= 1.5*hystNs {
			t.Logf("dense deep horizon: hysteresis %.0f ns/batch, legacy %.0f ns/batch (%.2f×)",
				hystNs, legacyNs, legacyNs/hystNs)
			return
		}
	}
	t.Errorf("dense deep horizon: hysteresis %.0f ns/batch vs legacy %.0f ns/batch — below the 1.5× bar",
		hystNs, legacyNs)
}

// sparseDriver keeps a schedule shaped like the paper-lp request traffic
// running through an engine: sparsePending events stand pending, and each
// fired event is replaced by one 4–65 µs ahead, so deadlines sit about
// 0.75 µs apart. Nearly every event is placed on level 2 and, once its
// level-2 bucket cascades, is alone in its level-1 bucket.
type sparseDriver struct {
	e   *Engine
	s   countSink
	rng uint64
}

// sparsePending × 0.75 µs spacing ≈ the 34.5 µs mean lead.
const sparsePending = 46

func newSparseDriver(e *Engine) *sparseDriver {
	d := &sparseDriver{e: e, rng: 0x9E3779B97F4A7C15}
	for i := 0; i < sparsePending; i++ {
		d.e.AfterSink(d.lead(), &d.s, EventArg{U64: 1})
	}
	return d
}

func (d *sparseDriver) lead() time.Duration {
	d.rng ^= d.rng << 13
	d.rng ^= d.rng >> 7
	d.rng ^= d.rng << 17
	return 4*time.Microsecond + time.Duration(d.rng%uint64(61*time.Microsecond))
}

// iter is one steady-state step: fire the earliest event, schedule its
// replacement.
func (d *sparseDriver) iter() {
	d.e.Step()
	d.e.AfterSink(d.lead(), &d.s, EventArg{U64: 1})
}

// TestWheelSparseHorizonCascades pins the lone-bucket pop by its
// mechanism count: on the sparse schedule at most 0.3 buckets cascade per
// fired event. Cascading every bucket on the way to level 0 costs about
// 1.1 — each event's lone level-1 bucket plus its share of a level-2 one.
func TestWheelSparseHorizonCascades(t *testing.T) {
	e := NewEngine()
	d := newSparseDriver(e)
	for i := 0; i < 100_000; i++ {
		d.iter()
	}
	w := &e.queue
	perEvent := float64(w.cascades) / float64(e.Fired())
	t.Logf("%d cascades walking %d events for %d fired: %.3f cascades per fired event",
		w.cascades, w.cascadeEvents, e.Fired(), perEvent)
	if perEvent > 0.3 {
		t.Errorf("%.3f cascades per fired event, want ≤ 0.3", perEvent)
	}
}

// BenchmarkEngineSparseHorizon measures one schedule+fire on the sparse
// paper-lp-shaped schedule (see sparseDriver). 0 B/op in steady state.
func BenchmarkEngineSparseHorizon(b *testing.B) {
	d := newSparseDriver(NewEngine())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.iter()
	}
}
