package services

import (
	"math"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/sim"
)

// doneFunc adapts a completion func to JobSink for tests (allocates one
// closure per call — fine off the hot path).
type doneFunc func(end sim.Time)

func (f doneFunc) JobDone(end sim.Time, _ *Request) { f(end) }

// approx asserts got is within 1% of want (machines carry per-run
// frequency jitter, so exact equality does not hold).
func approx(t *testing.T, label string, got, want time.Duration) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.01*float64(want) {
		t.Errorf("%s = %v, want ≈%v", label, got, want)
	}
}

func newTier(t *testing.T, workers int, cfg TierConfig) (*Tier, *sim.Engine) {
	t.Helper()
	m, err := hw.NewMachine("m", workers, hw.ServerBaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]int, workers)
	for i := range cores {
		cores[i] = i
	}
	cfg.Machine = m
	cfg.Cores = cores
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	tier, err := NewTier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	m.ResetRun(rng.New(1))
	tier.ResetRun(engine, rng.New(2))
	return tier, engine
}

func TestNewTierValidation(t *testing.T) {
	if _, err := NewTier(TierConfig{Name: "x"}); err == nil {
		t.Error("nil machine accepted")
	}
	m, _ := hw.NewMachine("m", 2, hw.ServerBaselineConfig())
	if _, err := NewTier(TierConfig{Name: "x", Machine: m}); err == nil {
		t.Error("no cores accepted")
	}
	if _, err := NewTier(TierConfig{Name: "x", Machine: m, Cores: []int{5}}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if _, err := NewTier(TierConfig{Name: "x", Machine: m, Cores: []int{0}, Contention: -1}); err == nil {
		t.Error("negative contention accepted")
	}
	if _, err := NewTier(TierConfig{Name: "x", Machine: m, Cores: []int{0}, TailJitterProb: 2}); err == nil {
		t.Error("tail probability >1 accepted")
	}
}

func TestTierExecutesJob(t *testing.T) {
	tier, engine := newTier(t, 2, TierConfig{})
	var done sim.Time
	tier.Submit(0, 10*time.Microsecond, nil, doneFunc(func(end sim.Time) { done = end }))
	engine.Run()
	if done == 0 {
		t.Fatal("job never completed")
	}
	// Server baseline: turbo off, nominal frequency, boot wake is free →
	// the job takes its nominal duration.
	approx(t, "completion", time.Duration(done), 10*time.Microsecond)
	if tier.Completed() != 1 {
		t.Errorf("completed = %d", tier.Completed())
	}
}

func TestTierQueuesBeyondWorkers(t *testing.T) {
	tier, engine := newTier(t, 1, TierConfig{})
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		tier.Submit(0, 10*time.Microsecond, nil, doneFunc(func(end sim.Time) { ends = append(ends, end) }))
	}
	engine.Run()
	if len(ends) != 3 {
		t.Fatalf("completed %d of 3", len(ends))
	}
	// Serial execution on one worker: completions 10, 20, 30µs (FIFO).
	for i, want := range []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond} {
		approx(t, "serial completion", time.Duration(ends[i]), want)
		_ = i
	}
	if tier.MaxQueueDepth() != 2 {
		t.Errorf("max queue depth = %d, want 2", tier.MaxQueueDepth())
	}
}

func TestTierParallelWorkers(t *testing.T) {
	tier, engine := newTier(t, 4, TierConfig{})
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		tier.Submit(0, 10*time.Microsecond, nil, doneFunc(func(end sim.Time) { ends = append(ends, end) }))
	}
	engine.Run()
	for _, e := range ends {
		approx(t, "parallel completion", time.Duration(e), 10*time.Microsecond)
	}
}

func TestTierAffinityQueueing(t *testing.T) {
	tier, engine := newTier(t, 2, TierConfig{})
	var connEnds [2][]sim.Time
	// Two jobs on conn 0 (worker 0) and none on conn 1: conn 0's second
	// job must wait even though worker 1 idles.
	for i := 0; i < 2; i++ {
		tier.SubmitConn(0, 0, 10*time.Microsecond, nil, doneFunc(func(end sim.Time) { connEnds[0] = append(connEnds[0], end) }))
	}
	tier.SubmitConn(0, 1, 10*time.Microsecond, nil, doneFunc(func(end sim.Time) { connEnds[1] = append(connEnds[1], end) }))
	engine.Run()
	approx(t, "affinity-queued completion", time.Duration(connEnds[0][1]), 20*time.Microsecond)
	approx(t, "other worker completion", time.Duration(connEnds[1][0]), 10*time.Microsecond)
}

func TestTierWorkerSleepsAndPaysWake(t *testing.T) {
	tier, engine := newTier(t, 1, TierConfig{})
	tier.Submit(0, 5*time.Microsecond, nil, noopSink)
	engine.Run()
	w := tier.workers[0]
	if !w.core.Idle() {
		t.Fatal("worker core not asleep after drain")
	}
	// Submit again after a long idle: the wake penalty (C1 exit +
	// dispatch) delays the start.
	later := sim.Time(0).Add(5 * time.Millisecond)
	var end sim.Time
	engine.AtSink(later, eventFunc(func(now sim.Time) {
		tier.Submit(now, 10*time.Microsecond, nil, doneFunc(func(e sim.Time) { end = e }))
	}), sim.EventArg{})
	engine.Run()
	elapsed := end.Sub(later)
	if elapsed <= 10*time.Microsecond {
		t.Errorf("woken job took %v, want > 10µs (wake penalty)", elapsed)
	}
	if elapsed > 20*time.Microsecond {
		t.Errorf("woken job took %v, want ≈12–14µs (C1 exit + dispatch)", elapsed)
	}
}

func TestTierContentionInflatesUnderLoad(t *testing.T) {
	tier, engine := newTier(t, 2, TierConfig{Contention: 0.5})
	var ends []sim.Time
	tier.Submit(0, 10*time.Microsecond, nil, doneFunc(func(e sim.Time) { ends = append(ends, e) }))
	tier.Submit(0, 10*time.Microsecond, nil, doneFunc(func(e sim.Time) { ends = append(ends, e) }))
	engine.Run()
	// First job dispatched alone (no inflation); second sees one busy
	// worker → ×1.5.
	approx(t, "first job", time.Duration(ends[0]), 10*time.Microsecond)
	approx(t, "contended job", time.Duration(ends[1]), 15*time.Microsecond)
}

func TestTierNoiseAndTailJitter(t *testing.T) {
	tier, _ := newTier(t, 1, TierConfig{TailJitterProb: 0.2, TailJitterMean: 100 * time.Microsecond})
	sawNonOne := false
	for i := 0; i < 100; i++ {
		n := tier.Noise(0.2)
		if n <= 0 {
			t.Fatalf("noise %v not positive", n)
		}
		if n != 1 {
			sawNonOne = true
		}
	}
	if !sawNonOne {
		t.Error("noise always exactly 1")
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if tier.TailJitter() > 0 {
			hits++
		}
	}
	if hits < 120 || hits > 280 {
		t.Errorf("tail jitter hit %d of 1000, want ≈200", hits)
	}
	// Zero probability → never fires.
	tier2, _ := newTier(t, 1, TierConfig{})
	for i := 0; i < 100; i++ {
		if tier2.TailJitter() != 0 {
			t.Fatal("tail jitter fired with zero probability")
		}
	}
}

func TestTierHiccupsOccupyWorkers(t *testing.T) {
	tier, engine := newTier(t, 1, TierConfig{Hiccups: true})
	tier.StartRun(sim.Time(0).Add(5 * time.Second))
	engine.RunFor(5 * time.Second)
	// At 1.2 hiccups/s over 5s, several background jobs should have run.
	if tier.Completed() < 2 {
		t.Errorf("only %d hiccups in 5s, want several", tier.Completed())
	}
}

func TestTierResetRunClearsState(t *testing.T) {
	tier, engine := newTier(t, 1, TierConfig{})
	for i := 0; i < 5; i++ {
		tier.Submit(0, time.Microsecond, nil, noopSink)
	}
	engine.Run()
	tier.ResetRun(sim.NewEngine(), rng.New(3))
	if tier.Completed() != 0 || tier.MaxQueueDepth() != 0 || tier.BusyTime() != 0 {
		t.Error("counters survive reset")
	}
	if tier.queue.depth() != 0 {
		t.Error("queue survives reset")
	}
}

// TestTierQueueDepthSplit drives the shared-FIFO (Submit) and the
// per-connection affinity (SubmitConn) paths in one run and checks the
// two backlogs are tracked separately: 1 worker, one running job, then
// 3 shared submissions and 2 affinity submissions on the busy worker.
func TestTierQueueDepthSplit(t *testing.T) {
	tier, engine := newTier(t, 1, TierConfig{})
	tier.Submit(0, 10*time.Microsecond, nil, noopSink) // occupies the worker
	for i := 0; i < 3; i++ {
		tier.Submit(0, time.Microsecond, nil, noopSink)
	}
	for i := 0; i < 2; i++ {
		tier.SubmitConn(0, 0, time.Microsecond, nil, noopSink)
	}
	engine.Run()
	if got := tier.MaxSharedQueueDepth(); got != 3 {
		t.Errorf("max shared queue depth = %d, want 3", got)
	}
	if got := tier.MaxConnQueueDepth(); got != 2 {
		t.Errorf("max conn queue depth = %d, want 2", got)
	}
	if got := tier.MaxQueueDepth(); got != 3 {
		t.Errorf("max queue depth = %d, want max(3,2)=3", got)
	}
	if tier.Completed() != 6 {
		t.Errorf("completed = %d, want 6", tier.Completed())
	}
}

// TestTierSubmitConnExtremeConn pins the non-negative-modulo fix: the old
// `conn = -conn` normalization overflowed for math.MinInt (still
// negative) and panicked indexing the worker slice.
func TestTierSubmitConnExtremeConn(t *testing.T) {
	tier, engine := newTier(t, 3, TierConfig{})
	for _, conn := range []int{math.MinInt, math.MinInt + 1, -1, 0, 1, math.MaxInt} {
		tier.SubmitConn(0, conn, time.Microsecond, nil, noopSink)
	}
	engine.Run()
	if tier.Completed() != 6 {
		t.Errorf("completed = %d, want 6", tier.Completed())
	}
}

// TestTierBusyTimeAccumulates checks worker occupancy accounting: two
// 10µs jobs on separate workers accumulate ≈20µs of busy time.
func TestTierBusyTimeAccumulates(t *testing.T) {
	tier, engine := newTier(t, 2, TierConfig{})
	tier.Submit(0, 10*time.Microsecond, nil, noopSink)
	tier.Submit(0, 10*time.Microsecond, nil, noopSink)
	engine.Run()
	approx(t, "busy time", tier.BusyTime(), 20*time.Microsecond)
}

// TestJobFIFORingReuse exercises the head-index ring directly: a long
// push/pop stream at constant depth must preserve FIFO order, reuse slots
// via compaction instead of growing with total throughput (a naive
// head-index slice would reach cap ≈ 1000 here), and zero vacated slots.
func TestJobFIFORingReuse(t *testing.T) {
	var q jobFIFO
	costOf := func(i int) time.Duration { return time.Duration(i + 1) }
	q.push(tierJob{cost: costOf(0)})
	q.push(tierJob{cost: costOf(1)})
	next := 0
	for i := 2; i < 1000; i++ {
		q.push(tierJob{cost: costOf(i)})
		j := q.pop() // depth stays 2, head keeps moving
		if j.cost != costOf(next) {
			t.Fatalf("pop %d: cost %v, want %v", next, j.cost, costOf(next))
		}
		next++
	}
	if q.depth() != 2 {
		t.Fatalf("depth = %d, want 2", q.depth())
	}
	if cap(q.jobs) > 16 {
		t.Errorf("backing array grew to cap %d for a depth-2 workload (compaction broken)", cap(q.jobs))
	}
	for q.depth() > 0 {
		j := q.pop()
		if j.cost != costOf(next) {
			t.Fatalf("drain pop %d: cost %v, want %v", next, j.cost, costOf(next))
		}
		next++
	}
	for _, j := range q.jobs[:cap(q.jobs)] {
		if j != (tierJob{}) {
			t.Fatal("vacated slot not zeroed")
		}
	}
}

func TestStackCostReflectsSMT(t *testing.T) {
	mOff, _ := hw.NewMachine("off", 2, hw.ServerBaselineConfig())
	mOn, _ := hw.NewMachine("on", 2, hw.ServerBaselineConfig().WithSMT(true))
	tOff, _ := NewTier(TierConfig{Name: "a", Machine: mOff, Cores: []int{0}})
	tOn, _ := NewTier(TierConfig{Name: "b", Machine: mOn, Cores: []int{0}})
	if tOff.StackCost() <= tOn.StackCost() {
		t.Errorf("SMT-off stack cost %v should exceed SMT-on %v (softirq offload)",
			tOff.StackCost(), tOn.StackCost())
	}
}
