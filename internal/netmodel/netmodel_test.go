package netmodel

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestDelayAroundBase(t *testing.T) {
	l, err := New(DefaultConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		d := l.Delay(0)
		if d <= 0 {
			t.Fatalf("non-positive delay %v", d)
		}
		total += d
	}
	mean := total / n
	if mean < 4500*time.Nanosecond || mean > 5700*time.Nanosecond {
		t.Errorf("mean zero-byte delay = %v, want ≈5µs", mean)
	}
	if l.Delivered() != n {
		t.Errorf("delivered = %d, want %d", l.Delivered(), n)
	}
}

func TestDelayGrowsWithSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSD = 0 // deterministic for the comparison
	l, err := New(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	small := l.Delay(64)
	big := l.Delay(64 * 1024)
	if big <= small {
		t.Errorf("64KiB delay %v not above 64B delay %v", big, small)
	}
	// 64 KiB at 0.8 ns/B ≈ 52µs of serialization on top of 5µs base.
	if big < 40*time.Microsecond || big > 80*time.Microsecond {
		t.Errorf("64KiB delay = %v, want ≈57µs", big)
	}
}

func TestDeterministicWithoutJitter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSD = 0
	l, _ := New(cfg, rng.New(3))
	if l.Delay(100) != l.Delay(100) {
		t.Error("jitter-free link not deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Base: -time.Microsecond}, rng.New(1)); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := New(Config{JitterSD: -1}, rng.New(1)); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestLoopbackSlowerBaseThanRack(t *testing.T) {
	lo := Loopback(rng.New(4))
	rack, _ := New(DefaultConfig(), rng.New(5))
	var loTotal, rackTotal time.Duration
	for i := 0; i < 1000; i++ {
		loTotal += lo.Delay(200)
		rackTotal += rack.Delay(200)
	}
	if loTotal <= rackTotal {
		t.Error("loopback/bridge path should be slower than the rack link (container networking overhead)")
	}
}

// deliverSink counts typed deliveries for the benchmark below.
type deliverSink struct{ n uint64 }

func (s *deliverSink) OnEvent(_ sim.Time, arg sim.EventArg) { s.n += arg.U64 }

// BenchmarkLinkDeliver measures one typed delivery end to end — jitter
// draw, schedule on the engine's timer wheel, fire into the sink — the
// per-message cost every simulated request pays twice (request and
// response links). Steady state must be 0 B/op: the event comes from
// the engine pool and the sink argument carries no boxed values.
func BenchmarkLinkDeliver(b *testing.B) {
	for _, pending := range []int{0, 10_000} {
		name := "idle"
		if pending > 0 {
			name = "pending10k"
		}
		b.Run(name, func(b *testing.B) {
			engine := sim.NewEngine()
			l, err := New(DefaultConfig(), rng.New(9))
			if err != nil {
				b.Fatal(err)
			}
			s := &deliverSink{}
			// A standing event population puts the schedule on the
			// wheel's realistic operating point (in-flight requests).
			// Fillers sit beyond the measured deliveries so every Step
			// below fires a delivery, never a filler.
			for i := 0; i < pending; i++ {
				engine.AfterSink(time.Hour+time.Duration(i)*time.Microsecond, s, sim.EventArg{})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Deliver(engine, engine.Now(), 128, s, sim.EventArg{U64: 1})
				engine.Step()
			}
			b.StopTimer()
			if s.n == 0 {
				b.Fatal("no deliveries fired")
			}
		})
	}
}

func TestMinDelayFloor(t *testing.T) {
	cfg := DefaultConfig()
	if got, want := cfg.MinDelay(), time.Duration(float64(cfg.Base)*0.527292); got < want-time.Nanosecond || got > want+time.Nanosecond {
		t.Errorf("MinDelay() = %v, want ≈%v (base·exp(-8·0.08))", got, want)
	}
	cfg.JitterSD = 0
	if cfg.MinDelay() != cfg.Base {
		t.Errorf("jitter-free MinDelay() = %v, want base %v", cfg.MinDelay(), cfg.Base)
	}
	l, err := New(DefaultConfig(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	floor := DefaultConfig().MinDelay()
	for i := 0; i < 100_000; i++ {
		if d := l.Delay(0); d < floor {
			t.Fatalf("Delay() = %v below MinDelay floor %v", d, floor)
		}
	}
}

// TestDelayMatchesLogNormalAcrossChunks checks the jitter a link draws
// ahead against one LogNormal draw per message from a twin stream, over
// three chunks and one more delay, at payload sizes that vary by
// message. The floor is raised to the base latency, so about half the
// delays take the MinDelay clamp.
func TestDelayMatchesLogNormalAcrossChunks(t *testing.T) {
	cfg := DefaultConfig()
	l, err := New(cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	l.min = cfg.Base
	twin := rng.New(21)
	clamped := 0
	for i := 0; i < 3*jitterChunk+1; i++ {
		bytes := 64 * (i % 5)
		want := time.Duration(float64(cfg.Base+time.Duration(float64(bytes)*cfg.PerByteNs)) * twin.LogNormal(0, cfg.JitterSD))
		if want < l.min {
			want = l.min
			clamped++
		}
		if got := l.Delay(bytes); got != want {
			t.Fatalf("delay %d (%d B) = %v, one draw per message gives %v", i, bytes, got, want)
		}
	}
	if clamped == 0 || clamped == 3*jitterChunk+1 {
		t.Fatalf("%d of %d delays clamped, want some but not all", clamped, 3*jitterChunk+1)
	}
}

// TestTransitDrawsOneAtATimeUnderSchedule checks that a link with a
// fault schedule draws each message's jitter, then its loss inside a
// loss window, from its stream in message order, as a twin stream
// replays them: a link that drew jitter ahead would hand out jitter
// values the loss draws own.
func TestTransitDrawsOneAtATimeUnderSchedule(t *testing.T) {
	cfg := DefaultConfig()
	l, err := New(cfg, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	const horizon = sim.Time(1000 * time.Microsecond)
	l.SetDegrade(faults.CompileLink([]faults.LinkWindow{{Start: 0.4, End: 0.6, DelayFactor: 3, Loss: 0.3}}, horizon))
	twin := rng.New(22)
	lost := 0
	for i := 0; i < 3*jitterChunk+1; i++ {
		from := sim.Time(i) * horizon / (3*jitterChunk + 1)
		d := time.Duration(float64(cfg.Base+time.Duration(128*cfg.PerByteNs)) * twin.LogNormal(0, cfg.JitterSD))
		inWindow := from >= horizon*4/10 && from < horizon*6/10
		wantLost := false
		if inWindow {
			d = time.Duration(float64(d) * 3)
			wantLost = twin.Float64() < 0.3
		}
		arrival, gotLost := l.Transit(from, 128)
		if arrival != from.Add(d) || gotLost != wantLost {
			t.Fatalf("message %d at %v: arrival %v lost %v, one draw at a time gives %v %v",
				i, from, arrival, gotLost, from.Add(d), wantLost)
		}
		if gotLost {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no message lost inside the loss window; the loss draws went untested")
	}
}

// TestSetDegradeAfterDrawPanics pins that a schedule cannot arrive after
// a link has drawn jitter ahead: the link could not give those draws
// back to the loss draws that own them.
func TestSetDegradeAfterDrawPanics(t *testing.T) {
	l, err := New(DefaultConfig(), rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	l.SetDegrade(nil) // before the first delay: allowed
	l.Delay(0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetDegrade after a delay did not panic")
		}
	}()
	l.SetDegrade(faults.CompileLink([]faults.LinkWindow{{Start: 0, End: 1, Loss: 0.1}}, sim.Time(time.Second)))
}

// orderSink records the firing order of tagged deliveries.
type orderSink struct {
	fired []uint64
	at    []sim.Time
}

func (s *orderSink) OnEvent(now sim.Time, arg sim.EventArg) {
	s.fired = append(s.fired, arg.U64)
	s.at = append(s.at, now)
}

// TestDeliverBatchingPreservesOrder pins that same-deadline deliveries
// fire in exactly Deliver-call order with one engine event each: with a
// jitter-free link, three back-to-back deliveries raise the engine's
// pending count by three, and an unrelated event scheduled between
// deliveries at the same deadline fires in its place, after the
// deliveries scheduled before it and before those scheduled after it.
func TestDeliverBatchingPreservesOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSD = 0
	engine := sim.NewEngine()
	l, err := New(cfg, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	s := &orderSink{}

	before := engine.Pending()
	for tag := uint64(1); tag <= 3; tag++ {
		l.Deliver(engine, engine.Now(), 0, s, sim.EventArg{U64: tag})
	}
	if got := engine.Pending() - before; got != 3 {
		t.Fatalf("3 same-deadline deliveries scheduled %d events, want 3", got)
	}
	engine.AtSink(engine.Now().Add(cfg.Base), s, sim.EventArg{U64: 99})
	l.Deliver(engine, engine.Now(), 0, s, sim.EventArg{U64: 4})
	l.Deliver(engine, engine.Now(), 0, s, sim.EventArg{U64: 5})

	engine.Run()
	want := []uint64{1, 2, 3, 99, 4, 5}
	if len(s.fired) != len(want) {
		t.Fatalf("fired %v, want %v", s.fired, want)
	}
	for i, tag := range want {
		if s.fired[i] != tag {
			t.Fatalf("firing order %v, want %v", s.fired, want)
		}
	}
	for _, at := range s.at {
		if at != sim.Time(0).Add(cfg.Base) {
			t.Fatalf("delivery fired at %v, want %v", at, cfg.Base)
		}
	}
}

// TestDeliverBatchMatchesJitteredPath checks that on a jittered link
// every delivery fires exactly once, in deadline order, whatever
// deadlines happen to collide.
func TestDeliverBatchMatchesJitteredPath(t *testing.T) {
	engine := sim.NewEngine()
	l, err := New(DefaultConfig(), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	s := &orderSink{}
	const n = 5000
	for tag := uint64(0); tag < n; tag++ {
		l.Deliver(engine, engine.Now(), 64, s, sim.EventArg{U64: tag})
	}
	engine.Run()
	if len(s.fired) != n {
		t.Fatalf("fired %d deliveries, want %d", len(s.fired), n)
	}
	seen := make(map[uint64]bool, n)
	for _, tag := range s.fired {
		if seen[tag] {
			t.Fatalf("delivery %d fired twice", tag)
		}
		seen[tag] = true
	}
	for i := 1; i < len(s.at); i++ {
		if s.at[i] < s.at[i-1] {
			t.Fatal("deliveries fired out of time order")
		}
	}
}

// TestDeliverPendingInvalidatedByReset checks that Engine.Reset drops a
// delivery still in flight: it never fires, not in the run it was
// scheduled in nor in the next, and a delivery scheduled after the reset
// at the same deadline fires exactly once.
func TestDeliverPendingInvalidatedByReset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSD = 0
	engine := sim.NewEngine()
	l, err := New(cfg, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	s := &orderSink{}
	l.Deliver(engine, engine.Now(), 0, s, sim.EventArg{U64: 1})
	engine.Reset()
	l.Deliver(engine, engine.Now(), 0, s, sim.EventArg{U64: 2})
	engine.Run()
	if len(s.fired) != 1 || s.fired[0] != 2 {
		t.Fatalf("post-reset delivery fired %v, want [2]", s.fired)
	}
}

// BenchmarkLinkDeliverBatch measures a jitter-free link carrying bursts
// of deliveries that all land on one deadline: batch1 delivers and
// drains one at a time, batch16 schedules 16 same-deadline events before
// draining them. Each delivery is its own engine event either way, so
// the two differ only in how the wheel holds the burst. No production
// link has zero jitter. Steady state must stay 0 B/op.
func BenchmarkLinkDeliverBatch(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.JitterSD = 0
			engine := sim.NewEngine()
			l, err := New(cfg, rng.New(15))
			if err != nil {
				b.Fatal(err)
			}
			s := &deliverSink{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				for j := 0; j < batch; j++ {
					l.Deliver(engine, engine.Now(), 128, s, sim.EventArg{U64: 1})
				}
				engine.Run()
			}
			b.StopTimer()
			if s.n == 0 {
				b.Fatal("no deliveries fired")
			}
		})
	}
}
