package hw

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

func mustMachine(t *testing.T, name string, cores int, cfg Config) *Machine {
	t.Helper()
	m, err := NewMachine(name, cores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ID returns the hardware thread index within its machine.
func (c *Core) ID() int { return c.id }

// CurrentCState returns the occupied idle state name ("C0" when busy).
func (c *Core) CurrentCState() string { return SkylakeCStates[c.CStateIndex()].Name }

// WakeCounts returns the core's wakes since the last run reset by the
// name of the C-state they left; a state never left has no entry.
func (c *Core) WakeCounts() map[string]int {
	out := make(map[string]int)
	for i, n := range c.wakes {
		if n > 0 {
			out[SkylakeCStates[i].Name] = n
		}
	}
	return out
}

// Utilization returns the busy fraction of the elapsed (busy+idle
// accounted) time since the last run reset.
func (c *Core) Utilization() float64 {
	total := c.totalBusy + c.totalIdle
	if total == 0 {
		return 0
	}
	return float64(c.totalBusy) / float64(total)
}

func TestConfigPresetsMatchTableII(t *testing.T) {
	lp := LPConfig()
	if lp.MaxCState != "C6" || lp.Driver != DriverIntelPstate || lp.Governor != GovernorPowersave ||
		!lp.Turbo || !lp.SMT || !lp.UncoreDynamic || lp.Tickless {
		t.Errorf("LP preset deviates from Table II: %+v", lp)
	}
	hp := HPConfig()
	if hp.MaxCState != "C0" || hp.Driver != DriverACPICpufreq || hp.Governor != GovernorPerformance ||
		!hp.Turbo || !hp.SMT || hp.UncoreDynamic || hp.Tickless {
		t.Errorf("HP preset deviates from Table II: %+v", hp)
	}
	srv := ServerBaselineConfig()
	if srv.MaxCState != "C1" || srv.Governor != GovernorPerformance || srv.Turbo || srv.SMT ||
		srv.UncoreDynamic || !srv.Tickless {
		t.Errorf("server preset deviates from Table II: %+v", srv)
	}
	for _, cfg := range []Config{lp, hp, srv} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := LPConfig()
	bad.MaxCState = "C7"
	if bad.Validate() == nil {
		t.Error("unknown C-state accepted")
	}
	bad = LPConfig()
	bad.MinFreqGHz = 0
	if bad.Validate() == nil {
		t.Error("zero min frequency accepted")
	}
	bad = LPConfig()
	bad.TurboFreqGHz = 1.0
	if bad.Validate() == nil {
		t.Error("turbo below nominal accepted")
	}
}

func TestConfigModifiers(t *testing.T) {
	c := ServerBaselineConfig().WithSMT(true)
	if !c.SMT {
		t.Error("WithSMT(true) did not enable SMT")
	}
	c = ServerBaselineConfig().WithMaxCState("C1E")
	if c.MaxCState != "C1E" {
		t.Error("WithMaxCState did not apply")
	}
}

func TestCStateTableOrdering(t *testing.T) {
	if len(SkylakeCStates) != numCStates {
		t.Fatalf("%d C-states, but cores count wakes in %d slots", len(SkylakeCStates), numCStates)
	}
	for i := 1; i < len(SkylakeCStates); i++ {
		prev, cur := SkylakeCStates[i-1], SkylakeCStates[i]
		if cur.ExitLatency <= prev.ExitLatency {
			t.Errorf("%s exit latency not deeper than %s", cur.Name, prev.Name)
		}
		if cur.TargetResidency < prev.TargetResidency {
			t.Errorf("%s residency shallower than %s", cur.Name, prev.Name)
		}
		if cur.RelativePower >= prev.RelativePower {
			t.Errorf("%s power not lower than %s", cur.Name, prev.Name)
		}
	}
	// Paper: transitions span 2 µs – 200 µs.
	if SkylakeCStates[1].ExitLatency != 2*time.Microsecond {
		t.Errorf("C1 exit = %v, want 2µs", SkylakeCStates[1].ExitLatency)
	}
	c6, ok := CStateByName("C6")
	if !ok || c6.ExitLatency < 100*time.Microsecond || c6.ExitLatency > 200*time.Microsecond {
		t.Errorf("C6 exit = %v, want within 100–200µs", c6.ExitLatency)
	}
	if _, ok := CStateByName("C9"); ok {
		t.Error("CStateByName invented a state")
	}
}

func TestMachineThreadTopology(t *testing.T) {
	smtOff := mustMachine(t, "s", 10, ServerBaselineConfig())
	if smtOff.NumThreads() != 10 {
		t.Errorf("SMT-off threads = %d, want 10", smtOff.NumThreads())
	}
	if smtOff.Core(0).sibling != nil {
		t.Error("SMT-off core has a sibling")
	}
	smtOn := mustMachine(t, "s2", 10, ServerBaselineConfig().WithSMT(true))
	if smtOn.NumThreads() != 20 {
		t.Errorf("SMT-on threads = %d, want 20", smtOn.NumThreads())
	}
	if smtOn.Core(0).sibling != smtOn.Core(10) {
		t.Error("SMT sibling pairing broken")
	}
	for i := 0; i < smtOn.NumThreads(); i++ {
		if id := smtOn.Core(i).ID(); id != i {
			t.Errorf("Core(%d).ID() = %d", i, id)
		}
	}
	if smtOn.NumPhysicalCores() != 10 {
		t.Errorf("physical cores = %d, want 10", smtOn.NumPhysicalCores())
	}
}

func TestHPCoreWakesFree(t *testing.T) {
	m := mustMachine(t, "hp", 1, HPConfig())
	m.ResetRun(rng.New(1))
	c := m.Core(0)
	c.Wake(0)
	end := c.Execute(0, 10*time.Microsecond)
	c.Sleep(end, 0)
	// HP: MaxCState C0 → governor can only pick C0 (poll) → zero wake cost.
	lat := c.WakeLatency(end.Add(time.Millisecond))
	if lat != 0 {
		t.Errorf("HP wake latency = %v, want 0 (idle=poll)", lat)
	}
	if got := c.CurrentCState(); got != "C0" {
		t.Errorf("HP idle state = %s, want C0", got)
	}
}

func TestLPDeepSleepAfterLongIdle(t *testing.T) {
	m := mustMachine(t, "lp", 1, LPConfig())
	m.ResetRun(rng.New(2))
	c := m.Core(0)
	// Train the governor with long idles. The ladder needs
	// ladderPromoteThreshold successes per step, so give it three steps'
	// worth of cycles.
	now := sim.Time(0)
	for i := 0; i < 3*ladderPromoteThreshold+3; i++ {
		ready := c.Wake(now)
		end := c.Execute(ready, 5*time.Microsecond)
		c.Sleep(end, 2*time.Millisecond) // long timer hint
		now = end.Add(2 * time.Millisecond)
	}
	if got := c.CurrentCState(); got != "C6" {
		t.Errorf("after long idles state = %s, want C6", got)
	}
	lat := c.WakeLatency(now)
	// C6 exit 133µs × run jitter (±~30%).
	if lat < 80*time.Microsecond || lat > 250*time.Microsecond {
		t.Errorf("C6 wake latency = %v, want ≈133µs", lat)
	}
}

func TestShortHintPicksShallowState(t *testing.T) {
	// Menu governor (tickless) honours the timer hint.
	cfg := LPConfig()
	cfg.Tickless = true
	m := mustMachine(t, "lp", 1, cfg)
	m.ResetRun(rng.New(3))
	c := m.Core(0)
	ready := c.Wake(0)
	end := c.Execute(ready, time.Microsecond)
	c.Sleep(end, 5*time.Microsecond) // next deadline in 5µs
	if got := c.CurrentCState(); got != "C1" {
		t.Errorf("idle state with 5µs hint = %s, want C1 (residency 2µs ≤ 5µs < 20µs)", got)
	}
}

func TestGovernorHistoryBoundsDepth(t *testing.T) {
	// Bursty phase: many short idles. Even with a long timer hint the
	// governor's history should keep the core shallow.
	m := mustMachine(t, "lp", 1, LPConfig())
	m.ResetRun(rng.New(4))
	c := m.Core(0)
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		ready := c.Wake(now)
		end := c.Execute(ready, time.Microsecond)
		c.Sleep(end, 0)
		now = end.Add(8 * time.Microsecond) // short actual idles
	}
	c.Wake(now)
	end := c.Execute(now, time.Microsecond)
	c.Sleep(end, 10*time.Millisecond) // long hint, but history says short
	if got := c.CurrentCState(); got == "C6" {
		t.Error("governor ignored short-idle history and picked C6")
	}
}

func TestDVFSRampStretchesWork(t *testing.T) {
	// LP (powersave): work right after a deep wake runs at 0.8 GHz versus
	// a 3.0 GHz ceiling, so 10µs of nominal work takes ~2.2/0.8 = 2.75×
	// longer while ramping.
	lp := LPConfig()
	lp.UncoreDynamic = false // isolate the DVFS effect
	lp.Tickless = true       // menu governor honours the long timer hint
	m := mustMachine(t, "lp", 1, lp)
	m.ResetRun(rng.New(5))
	m.wakeScale = 1 // pin jitter for exact arithmetic
	m.freqScale = 1
	c := m.Core(0)
	ready := c.Wake(0)
	end := c.Execute(ready, time.Microsecond)
	c.Sleep(end, 2*time.Millisecond)
	wakeAt := end.Add(2 * time.Millisecond)
	ready = c.Wake(wakeAt)

	start := ready
	done := c.Execute(start, 8*time.Microsecond)
	slow := done.Sub(start)
	// At min frequency the speed factor is 0.8/2.2 ≈ 0.364, so 8µs of
	// nominal work takes 22µs, all within the 30µs ramp window.
	want := time.Duration(float64(8*time.Microsecond) * lp.NominalFreqGHz / lp.MinFreqGHz)
	if math.Abs(float64(slow-want)) > float64(100*time.Nanosecond) {
		t.Errorf("ramped execution took %v, want ≈%v", slow, want)
	}

	// After the ramp, powersave runs at the utilization-derived P-state.
	// Saturate an epoch so the next epoch grants full frequency.
	epochStart := sim.Time((int64(c.rampDone)/int64(pstateEpoch) + 1) * int64(pstateEpoch))
	c.busyUntil = epochStart
	c.Execute(epochStart, pstateEpoch) // fully busy epoch
	postStart := c.BusyUntil()
	done2 := c.Execute(postStart, 8*time.Microsecond)
	fast := done2.Sub(postStart)
	if fast >= slow {
		t.Errorf("full-utilization work (%v) not faster than post-wake minimum-frequency work (%v)", fast, slow)
	}
}

func TestPerformanceGovernorNoRamp(t *testing.T) {
	m := mustMachine(t, "hp", 1, HPConfig())
	m.ResetRun(rng.New(6))
	m.freqScale = 1
	c := m.Core(0)
	ready := c.Wake(0)
	end := c.Execute(ready, time.Microsecond)
	c.Sleep(end, time.Millisecond)
	wake := c.Wake(end.Add(time.Millisecond))
	done := c.Execute(wake, 10*time.Microsecond)
	got := done.Sub(wake)
	ratio := float64(SkylakeNominalGHz) / float64(SkylakeTurboGHz)
	want := time.Duration(float64(10*time.Microsecond) * ratio)
	if math.Abs(float64(got-want)) > float64(100*time.Nanosecond) {
		t.Errorf("performance-governor work took %v, want %v (no ramp)", got, want)
	}
}

func TestTurboOffRunsAtNominal(t *testing.T) {
	m := mustMachine(t, "srv", 1, ServerBaselineConfig())
	m.ResetRun(rng.New(7))
	m.freqScale = 1
	c := m.Core(0)
	wake := c.Wake(0)
	done := c.Execute(wake, 10*time.Microsecond)
	if got := done.Sub(wake); got != 10*time.Microsecond {
		t.Errorf("turbo-off nominal work took %v, want 10µs", got)
	}
}

func TestSMTContentionPenalty(t *testing.T) {
	cfg := ServerBaselineConfig().WithSMT(true)
	m := mustMachine(t, "srv", 2, cfg)
	m.ResetRun(rng.New(8))
	m.freqScale = 1
	a, b := m.Core(0), m.Core(2) // siblings on physical core 0
	if a.sibling != b {
		t.Fatal("topology: expected cores 0 and 2 to be siblings")
	}
	// Run b busy over the window, then measure a's work.
	wb := b.Wake(0)
	b.Execute(wb, 100*time.Microsecond)
	wa := a.Wake(0)
	done := a.Execute(wa, 10*time.Microsecond)
	got := done.Sub(wa)
	want := time.Duration(float64(10*time.Microsecond) * smtPenalty)
	if math.Abs(float64(got-want)) > float64(100*time.Nanosecond) {
		t.Errorf("SMT-contended work took %v, want %v", got, want)
	}
	// An idle sibling imposes no penalty.
	c, d := m.Core(1), m.Core(3)
	_ = d
	wc := c.Wake(0)
	done = c.Execute(wc, 10*time.Microsecond)
	if got := done.Sub(wc); got != 10*time.Microsecond {
		t.Errorf("uncontended SMT work took %v, want 10µs", got)
	}
}

func TestUncoreParkPenalty(t *testing.T) {
	lp := LPConfig()
	m := mustMachine(t, "lp", 2, lp)
	m.ResetRun(rng.New(9))
	m.wakeScale = 1
	// Sleep all cores (machine starts all-idle at time 0), wait past the
	// park delay, then check the first wake pays the uncore penalty.
	now := sim.Time(0).Add(uncoreParkDelay + time.Millisecond)
	c := m.Core(0)
	// Train: core is in boot C0 state, so wake latency is just uncore.
	lat := c.WakeLatency(now)
	if lat != uncoreWakeLatency {
		t.Errorf("parked-uncore wake = %v, want %v", lat, uncoreWakeLatency)
	}
	// Fixed uncore: no penalty.
	hp := mustMachine(t, "hp", 2, HPConfig())
	hp.ResetRun(rng.New(10))
	hp.wakeScale = 1
	if lat := hp.Core(0).WakeLatency(now); lat != 0 {
		t.Errorf("fixed-uncore wake = %v, want 0", lat)
	}
}

func TestSleepWhileBusyPanics(t *testing.T) {
	m := mustMachine(t, "x", 1, HPConfig())
	m.ResetRun(rng.New(11))
	c := m.Core(0)
	w := c.Wake(0)
	c.Execute(w, 10*time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Error("Sleep during busy window did not panic")
		}
	}()
	c.Sleep(w, 0)
}

func TestExecuteWhileIdlePanics(t *testing.T) {
	m := mustMachine(t, "x", 1, HPConfig())
	m.ResetRun(rng.New(12))
	defer func() {
		if recover() == nil {
			t.Error("Execute on idle core did not panic")
		}
	}()
	m.Core(0).Execute(0, time.Microsecond)
}

func TestResetRunClearsState(t *testing.T) {
	m := mustMachine(t, "x", 2, LPConfig())
	m.ResetRun(rng.New(13))
	c := m.Core(0)
	w := c.Wake(0)
	end := c.Execute(w, 50*time.Microsecond)
	c.Sleep(end, time.Millisecond)
	c.Wake(end.Add(time.Millisecond))

	m.ResetRun(rng.New(14))
	if got := c.Utilization(); got != 0 {
		t.Errorf("utilization after reset = %v, want 0", got)
	}
	if len(c.WakeCounts()) != 0 {
		t.Errorf("wake counts after reset = %v, want empty", c.WakeCounts())
	}
	if !c.Idle() {
		t.Error("core not idle after reset")
	}
	if c.BusyUntil() != 0 {
		t.Errorf("busyUntil after reset = %v, want 0", c.BusyUntil())
	}
}

func TestRunJitterVariesAcrossRuns(t *testing.T) {
	m := mustMachine(t, "x", 1, LPConfig())
	stream := rng.New(15)
	seen := make(map[float64]bool)
	for i := 0; i < 10; i++ {
		m.ResetRun(stream)
		seen[m.wakeScale] = true
	}
	if len(seen) < 9 {
		t.Errorf("wake jitter collided too often: %d distinct of 10", len(seen))
	}
}

func TestWakeRecordsStatistics(t *testing.T) {
	m := mustMachine(t, "x", 1, LPConfig())
	m.ResetRun(rng.New(16))
	c := m.Core(0)
	now := sim.Time(0)
	// Enough long idles for the ladder to reach energy-saving states.
	for i := 0; i < 20; i++ {
		w := c.Wake(now)
		end := c.Execute(w, 10*time.Microsecond)
		c.Sleep(end, 100*time.Microsecond)
		now = end.Add(100 * time.Microsecond)
	}
	c.Wake(now)
	total := 0
	for _, n := range c.WakeCounts() {
		total += n
	}
	// 21 Wake calls, but the first is the boot wake, which is not a
	// C-state exit and must not be counted.
	if total != 20 {
		t.Errorf("recorded %d wakes, want 20", total)
	}
	if c.Utilization() <= 0 || c.Utilization() >= 1 {
		t.Errorf("utilization = %v, want in (0,1)", c.Utilization())
	}
	e := m.EnergyProxy(time.Duration(now))
	if e <= 0 {
		t.Error("energy proxy not positive after activity")
	}
	// Sleeping must save energy versus an always-on machine.
	if full := time.Duration(now).Seconds() * float64(m.NumThreads()); e >= full {
		t.Errorf("energy %v not below always-on %v despite C-state residency", e, full)
	}
	if len(m.IdleDistribution()) == 0 {
		t.Error("idle distribution empty after wakes")
	}
}

func TestTicklessBoundsIdleChoice(t *testing.T) {
	// With Tickless=false (clients in Table II), an idle beginning just
	// before the next 4ms tick must not enter C6 even with a long hint.
	lp := LPConfig() // Tickless=false
	m := mustMachine(t, "x", 1, lp)
	m.ResetRun(rng.New(17))
	c := m.Core(0)
	w := c.Wake(0)
	end := c.Execute(w, time.Microsecond)
	// Move to just before a tick boundary: tick at 4ms.
	preTick := sim.Time(4*time.Millisecond - 10*time.Microsecond)
	if end > preTick {
		t.Fatalf("setup: work ran past the tick boundary (%v)", end)
	}
	c.busyUntil = preTick
	c.Sleep(preTick, 10*time.Millisecond)
	if got := c.CurrentCState(); got == "C6" {
		t.Error("idle straddling a near tick entered C6 despite tick bound")
	}

	// Tickless machine with the same pattern may go deep.
	lpTickless := LPConfig()
	lpTickless.Tickless = true
	m2 := mustMachine(t, "y", 1, lpTickless)
	m2.ResetRun(rng.New(17))
	c2 := m2.Core(0)
	w2 := c2.Wake(0)
	end2 := c2.Execute(w2, time.Microsecond)
	c2.busyUntil = end2
	c2.Sleep(preTick, 10*time.Millisecond)
	if got := c2.CurrentCState(); got != "C6" {
		t.Errorf("tickless idle with long hint = %s, want C6", got)
	}
}

func TestNewMachineErrors(t *testing.T) {
	if _, err := NewMachine("x", 0, HPConfig()); err == nil {
		t.Error("zero cores accepted")
	}
	bad := HPConfig()
	bad.MaxCState = "bogus"
	if _, err := NewMachine("x", 1, bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDriverAndGovernorStrings(t *testing.T) {
	if DriverIntelPstate.String() != "intel_pstate" || DriverACPICpufreq.String() != "acpi-cpufreq" {
		t.Error("driver names wrong")
	}
	if GovernorPowersave.String() != "powersave" || GovernorPerformance.String() != "performance" {
		t.Error("governor names wrong")
	}
	if FreqDriver(9).String() == "" || Governor(9).String() == "" {
		t.Error("unknown values should still render")
	}
}
