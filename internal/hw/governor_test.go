package hw

import (
	"encoding/binary"
	"maps"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// refGovernor is the idle governor as it was written before the
// production one kept a running sum and chose state indices: it copies
// the enabled states, rescans its history for every typical idle, and
// chooses a CState value. The tests below drive it beside the production
// governor as an oracle that shares none of that code.
type refGovernor struct {
	states       []CState
	ladder       bool
	history      [8]time.Duration
	n, idx       int
	depth        int
	promoteCount int
}

func newRefGovernor(maxState string, ladder bool) *refGovernor {
	var states []CState
	for _, s := range SkylakeCStates {
		states = append(states, s)
		if s.Name == maxState {
			break
		}
	}
	return &refGovernor{states: states, ladder: ladder}
}

func (g *refGovernor) record(idle time.Duration) {
	g.history[g.idx] = idle
	g.idx = (g.idx + 1) % len(g.history)
	if g.n < len(g.history) {
		g.n++
	}
	if !g.ladder {
		return
	}
	if idle >= g.states[g.depth].TargetResidency {
		g.promoteCount++
		next := g.depth + 1
		if g.promoteCount >= ladderPromoteThreshold && next < len(g.states) &&
			idle >= g.states[next].TargetResidency {
			g.depth = next
			g.promoteCount = 0
		}
	} else {
		if g.depth > 0 {
			g.depth--
		}
		g.promoteCount = 0
	}
}

func (g *refGovernor) typicalIdle() (time.Duration, bool) {
	if g.n == 0 {
		return 0, false
	}
	if g.n == 1 {
		return g.history[0], true
	}
	maxIdx := 0
	for i := 1; i < g.n; i++ {
		if g.history[i] > g.history[maxIdx] {
			maxIdx = i
		}
	}
	var sum time.Duration
	for i := 0; i < g.n; i++ {
		if i != maxIdx {
			sum += g.history[i]
		}
	}
	return sum / time.Duration(g.n-1), true
}

func (g *refGovernor) choose(timerHint, tickBound time.Duration, load float64) CState {
	if g.ladder {
		d := g.depth
		for d > 0 && tickBound > 0 && g.states[d].TargetResidency > tickBound {
			d--
		}
		return g.states[d]
	}
	predicted := time.Duration(1<<62 - 1)
	if timerHint > 0 {
		predicted = timerHint
	}
	if typ, ok := g.typicalIdle(); ok && typ < predicted {
		predicted = typ
	}
	if tickBound > 0 && tickBound < predicted {
		predicted = tickBound
	}
	residencyScale := time.Duration(1)
	if load > menuLoadThreshold {
		residencyScale = 2
	}
	best := g.states[0]
	for _, s := range g.states[1:] {
		if s.TargetResidency*residencyScale <= predicted {
			best = s
		}
	}
	return best
}

// TestGovernorMatchesRescan drives one core of each Table II machine, and
// of a tickless LP machine (the menu governor over all four states),
// through seeded random Sleep, Wake and Execute steps with the reference
// governor fed the same idles, timer hints, tick bounds and loads. Idles
// include zero (a wake at the sleep instant), repeats of an earlier idle
// (ties for the largest) and idles past the 4 ms tick. Every chosen state,
// every typical idle and the final IdleDistribution, against wakes the
// test counts by the reference state's name, must match.
func TestGovernorMatchesRescan(t *testing.T) {
	ticklessLP := LPConfig()
	ticklessLP.Tickless = true
	ticklessLP.Name = "LP-tickless"
	for ci, cfg := range []Config{LPConfig(), HPConfig(), ServerBaselineConfig(), ticklessLP} {
		t.Run(cfg.Name, func(t *testing.T) {
			m := mustMachine(t, "g", 1, cfg)
			m.ResetRun(rng.New(uint64(100 + ci)))
			c := m.Core(0)
			ref := newRefGovernor(cfg.MaxCState, !cfg.Tickless)
			refWakes := make(map[string]int)
			var refState CState
			slept := false
			steps := rng.NewLabeled(uint64(ci), "governor-steps")
			var seen []time.Duration
			now := sim.Time(0)
			for step := 0; step < 4000; step++ {
				// Wake after an idle of one of five kinds. Every other
				// stretch of 200 steps is quiet, with no zero or short
				// idles, so that the ladder can climb to its deepest state.
				k := steps.Intn(5)
				if step/200%2 == 1 {
					k = 1 + steps.Intn(3)
				}
				var idle time.Duration
				switch {
				case k == 0:
					idle = 0
				case k == 1 && len(seen) > 0:
					idle = seen[steps.Intn(len(seen))]
				case k == 2:
					idle = tickPeriod + time.Duration(steps.Intn(int(4*tickPeriod)))
				case k == 3:
					idle = time.Duration(steps.Intn(int(time.Millisecond)))
				default:
					idle = time.Duration(steps.Intn(int(30 * time.Microsecond)))
				}
				seen = append(seen, idle)
				now = now.Add(idle)
				c.Wake(now)
				if slept {
					ref.record(idle)
					refWakes[refState.Name]++
				}
				gotTyp, gotOK := c.gov.typicalIdle()
				wantTyp, wantOK := ref.typicalIdle()
				if gotTyp != wantTyp || gotOK != wantOK {
					t.Fatalf("step %d: typical idle %v, %v; reference %v, %v", step, gotTyp, gotOK, wantTyp, wantOK)
				}

				// Run one to three pieces of work, then sleep at or after
				// the end of the last with a hint of one of three kinds.
				for n := 1 + steps.Intn(3); n > 0; n-- {
					now = c.Execute(now, time.Duration(steps.Intn(int(200*time.Microsecond))))
				}
				if steps.Intn(4) == 0 {
					now = now.Add(time.Duration(steps.Intn(int(50 * time.Microsecond))))
				}
				var hint time.Duration
				switch steps.Intn(3) {
				case 1:
					hint = time.Duration(steps.Intn(int(100 * time.Microsecond)))
				case 2:
					hint = time.Duration(steps.Intn(int(20 * time.Millisecond)))
				}
				c.Sleep(now, hint)
				refState = ref.choose(hint, c.nextTickIn(now), c.loadEWMA)
				slept = true
				if got := SkylakeCStates[c.CStateIndex()]; got != refState {
					t.Fatalf("step %d: chose %s, reference %s", step, got.Name, refState.Name)
				}
			}
			if len(refWakes) != len(ref.states) {
				t.Errorf("the schedule left states of %d enabled unvisited: %v", len(ref.states), refWakes)
			}
			if got := m.IdleDistribution(); !maps.Equal(got, refWakes) {
				t.Errorf("IdleDistribution %v, reference %v", got, refWakes)
			}
		})
	}
}

// idleBytes encodes idles as FuzzGovernorMatchesRescan reads them.
func idleBytes(idles ...time.Duration) []byte {
	var b []byte
	for _, d := range idles {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b
}

// FuzzGovernorMatchesRescan feeds any sequence of idles, each a uint32 of
// nanoseconds (up to 4.3 s, past the tick), to the production governor
// and the reference in each strategy at each deepest state. After every
// idle it compares the typical idle and the state chosen with no hint or
// tick, and with a hint, a tick bound and a load derived from the idle.
func FuzzGovernorMatchesRescan(f *testing.F) {
	us := time.Microsecond
	f.Add([]byte{})
	f.Add(idleBytes(1*us, 2*us, 3*us, 4*us, 5*us, 6*us, 7*us, 8*us))                  // largest in slot 7
	f.Add(idleBytes(900*us, 20*us, 30*us, 5*us, 5*us, 40*us, 3*us, 7*us, 1*us, 2*us)) // wraps, largest overwritten
	f.Add(idleBytes(0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(idleBytes(50*us, 50*us, 50*us, 50*us, 50*us, 50*us, 50*us, 50*us, 50*us, 10*us))
	f.Add(idleBytes(5*time.Millisecond, 9*time.Millisecond, 700*us, 4*time.Millisecond, 30*us, 2*us, 600*us, 8*time.Millisecond, 3*us))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, state := range SkylakeCStates {
			for _, ladder := range []bool{false, true} {
				g := newIdleGovernor(state.Name, ladder)
				ref := newRefGovernor(state.Name, ladder)
				for i := 0; i+4 <= len(data); i += 4 {
					idle := time.Duration(binary.LittleEndian.Uint32(data[i:]))
					g.record(idle)
					ref.record(idle)
					gotTyp, gotOK := g.typicalIdle()
					wantTyp, wantOK := ref.typicalIdle()
					if gotTyp != wantTyp || gotOK != wantOK {
						t.Fatalf("%s ladder=%v idle %d: typical idle %v, %v; reference %v, %v",
							state.Name, ladder, i/4, gotTyp, gotOK, wantTyp, wantOK)
					}
					for _, in := range []struct {
						hint, tick time.Duration
						load       float64
					}{
						{0, 0, 0},
						{idle, tickPeriod - idle%tickPeriod, float64(idle%10) / 10},
					} {
						got := SkylakeCStates[g.choose(in.hint, in.tick, in.load)]
						if want := ref.choose(in.hint, in.tick, in.load); got != want {
							t.Fatalf("%s ladder=%v idle %d, %+v: chose %s, reference %s",
								state.Name, ladder, i/4, in, got.Name, want.Name)
						}
					}
				}
			}
		}
	})
}
