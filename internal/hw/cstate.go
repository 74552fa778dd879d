package hw

import (
	"time"
)

// CState describes one processor idle state of the Skylake table the paper
// uses (§IV-C: "Skylake-based processors support 4 C-states C0, C1, C1E
// and C6"). Exit latencies follow the intel_idle driver's Skylake-SP table;
// the paper quotes the 2 µs – 200 µs range for C-state transitions.
type CState struct {
	Name string
	// ExitLatency is the time to wake the core back to C0.
	ExitLatency time.Duration
	// TargetResidency is the minimum idle period for which entering the
	// state saves energy; the idle governor will not pick the state for
	// predicted idles shorter than this.
	TargetResidency time.Duration
	// RelativePower is the core's power draw in this state relative to
	// active (C0 = 1.0). Used only for the energy accounting reports.
	RelativePower float64
}

// SkylakeCStates is the platform C-state table, shallowest first. The
// model names a state by its index here: the idle governor chooses an
// index, a core occupies one and counts its wakes by it, and index 0 is
// C0, the polling idle that costs nothing to leave.
var SkylakeCStates = []CState{
	{Name: "C0", ExitLatency: 0, TargetResidency: 0, RelativePower: 1.00},
	{Name: "C1", ExitLatency: 2 * time.Microsecond, TargetResidency: 2 * time.Microsecond, RelativePower: 0.30},
	{Name: "C1E", ExitLatency: 10 * time.Microsecond, TargetResidency: 20 * time.Microsecond, RelativePower: 0.15},
	{Name: "C6", ExitLatency: 133 * time.Microsecond, TargetResidency: 600 * time.Microsecond, RelativePower: 0.02},
}

// numCStates is len(SkylakeCStates), the size of a core's wake counters.
const numCStates = 4

// CStateByName returns the platform state with the given name.
func CStateByName(name string) (CState, bool) {
	for _, s := range SkylakeCStates {
		if s.Name == name {
			return s, true
		}
	}
	return CState{}, false
}

// enabledStates returns the platform states up to and including max, a
// prefix of SkylakeCStates, so a state's index is the same in both.
func enabledStates(max string) []CState {
	for i, s := range SkylakeCStates {
		if s.Name == max {
			return SkylakeCStates[:i+1]
		}
	}
	return SkylakeCStates
}

// idleGovernor selects the C-state for each idle period. Two strategies
// model the two Linux cpuidle governors:
//
//   - menu (tickless kernels, the server baseline in Table II): predicts
//     the idle duration from the next-timer hint and the recent idle
//     history, then picks the deepest enabled state whose target residency
//     fits the prediction.
//
//   - ladder (periodic-tick kernels — both client configurations in
//     Table II have Tickless off): climbs one state deeper after
//     consecutive long-enough idles and demotes after a too-short one. On
//     the request/response pattern of a block-wait workload generator
//     (short response waits alternating with long pacing idles), the
//     ladder periodically climbs into C6 and the next response pays the
//     full 133 µs exit — the deep-sleep measurement penalty of §V-A.
type idleGovernor struct {
	states []CState
	ladder bool

	// menu state: the last len(history) idle periods, idx the slot the
	// next one overwrites, n the slots filled, and sum their total.
	history [8]time.Duration
	n       int
	idx     int
	sum     time.Duration

	// ladder state.
	depth        int
	promoteCount int
}

// ladderPromoteThreshold is how many consecutive successful residencies the
// ladder needs before climbing one state deeper.
const ladderPromoteThreshold = 6

func newIdleGovernor(maxState string, ladder bool) idleGovernor {
	return idleGovernor{states: enabledStates(maxState), ladder: ladder}
}

// reset clears the governor's history for a new run, keeping its states
// and strategy.
func (g *idleGovernor) reset() {
	*g = idleGovernor{states: g.states, ladder: g.ladder}
}

// record notes an observed idle duration, never negative, for future
// predictions.
func (g *idleGovernor) record(idle time.Duration) {
	g.sum += idle - g.history[g.idx]
	g.history[g.idx] = idle
	g.idx = (g.idx + 1) % len(g.history)
	if g.n < len(g.history) {
		g.n++
	}
	if g.ladder {
		g.recordLadder(idle)
	}
}

func (g *idleGovernor) recordLadder(idle time.Duration) {
	cur := g.states[g.depth]
	if idle >= cur.TargetResidency {
		g.promoteCount++
		next := g.depth + 1
		if g.promoteCount >= ladderPromoteThreshold && next < len(g.states) &&
			idle >= g.states[next].TargetResidency {
			g.depth = next
			g.promoteCount = 0
		}
	} else {
		// Paid a too-deep sleep: back off immediately.
		if g.depth > 0 {
			g.depth--
		}
		g.promoteCount = 0
	}
}

// typicalIdle estimates the recent idle pattern like the Linux menu
// governor's get_typical_interval: the mean of the recorded history after
// discarding the largest observation (a single long outlier must not push
// the core into a deep state).
//
// Note the history only contains *actual idle periods*: a worker draining
// a queued burst never sleeps, so back-to-back arrivals do not appear
// here. This is why a bursty (LP-client-driven) arrival process, whose
// idles are the long inter-burst gaps, reads as "long typical idle" and
// sends server workers into C1E, while a smooth (HP-driven) process at the
// same rate produces short queueing-compressed idles and stays shallow —
// the paper's Figure 3 mechanism.
//
// record keeps the history's sum, so only the largest observation needs a
// scan. It scans all eight slots: unfilled slots hold 0 and idles are
// never negative, so the largest slot is the largest observation.
func (g *idleGovernor) typicalIdle() (time.Duration, bool) {
	if g.n == 0 {
		return 0, false
	}
	if g.n == 1 {
		return g.history[0], true
	}
	largest := g.history[0]
	for _, d := range g.history[1:] {
		largest = max(largest, d)
	}
	return (g.sum - largest) / time.Duration(g.n-1), true
}

// menuLoadThreshold is the recent busy fraction above which the menu
// governor penalizes deep states (Linux menu's performance multiplier:
// a loaded CPU should not pay long exit latencies).
const menuLoadThreshold = 0.42

// choose picks the C-state for an idle period and returns its index in
// SkylakeCStates. timerHint is the time until the next known deadline (0
// means no deadline is known). tickBound caps the prediction on
// non-tickless kernels, where the periodic tick will end the idle period
// regardless. load is the core's recent busy fraction.
func (g *idleGovernor) choose(timerHint, tickBound time.Duration, load float64) int {
	if g.ladder {
		// The ladder ignores timer hints; only the periodic tick bounds it
		// (no point entering a state whose residency exceeds the tick).
		d := g.depth
		for d > 0 && tickBound > 0 && g.states[d].TargetResidency > tickBound {
			d--
		}
		return d
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
	// Performance multiplier: on a loaded core a state must promise twice
	// its nominal residency before it is worth the exit latency. This is
	// what keeps a busy server in shallow states under smooth high-rate
	// arrivals while letting bursty arrivals (longer inter-burst idles)
	// still reach C1E — the differential behind the paper's Figure 3.
	residencyScale := time.Duration(1)
	if load > menuLoadThreshold {
		residencyScale = 2
	}
	best := 0
	for i := 1; i < len(g.states); i++ {
		if g.states[i].TargetResidency*residencyScale <= predicted {
			best = i
		}
	}
	return best
}
