package loadgen

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the generator's declarative-mix layer: client classes
// (rate fractions with per-class arrival processes, think times and
// size distributions) and phase programs (virtual-clock-driven load
// modulation). Both are the compile target of the workload-spec format
// (internal/spec). A Config with neither classes nor phases takes the
// legacy single-Poisson path untouched, byte for byte.

// Distribution names shared by think-time and size distributions.
const (
	DistFixed       = "fixed"
	DistExponential = "exponential"
	DistLognormal   = "lognormal"
)

// SizeConfig optionally overrides a class's request wire size with a
// drawn one. The payload content still comes from the service's own
// source — only the bytes crossing the modelled network change, which
// is what per-class size mixes affect in this testbed.
type SizeConfig struct {
	// Dist is the distribution ("" disables the override): fixed,
	// exponential, or lognormal.
	Dist string
	// Mean is the mean wire size in bytes.
	Mean float64
	// Sigma is the lognormal shape (σ of the underlying normal).
	Sigma float64
}

func (c SizeConfig) enabled() bool { return c.Dist != "" }

// Validate reports configuration errors.
func (c SizeConfig) Validate() error {
	if !c.enabled() {
		return nil
	}
	if c.Mean <= 0 || math.IsNaN(c.Mean) || math.IsInf(c.Mean, 0) {
		return fmt.Errorf("loadgen: size distribution needs mean > 0 bytes, got %v", c.Mean)
	}
	switch c.Dist {
	case DistFixed, DistExponential:
	case DistLognormal:
		if c.Sigma <= 0 || math.IsNaN(c.Sigma) || math.IsInf(c.Sigma, 0) {
			return fmt.Errorf("loadgen: lognormal size needs sigma > 0, got %v", c.Sigma)
		}
	default:
		return fmt.Errorf("loadgen: unknown size distribution %q (want %s|%s|%s)",
			c.Dist, DistFixed, DistExponential, DistLognormal)
	}
	return nil
}

// draw returns a wire size in bytes (≥1).
func (c SizeConfig) draw(stream *rng.Stream) int {
	var v float64
	switch c.Dist {
	case DistExponential:
		v = stream.Exp(1 / c.Mean)
	case DistLognormal:
		// µ chosen so the lognormal's mean is c.Mean.
		v = stream.LogNormal(math.Log(c.Mean)-c.Sigma*c.Sigma/2, c.Sigma)
	default: // DistFixed
		v = c.Mean
	}
	if v < 1 {
		return 1
	}
	return int(v)
}

// ThinkConfig optionally superimposes a think time on a class's
// inter-arrival gaps: each gap is lengthened by a drawn pause,
// modelling users who wait between requests. The class's effective rate
// drops below its nominal fraction accordingly — think time is user
// behaviour, not pacing error, so it is deliberately not charged to
// send lag.
type ThinkConfig struct {
	// Dist is the distribution ("" disables): fixed or exponential.
	Dist string
	// Mean is the mean think time.
	Mean time.Duration
}

func (c ThinkConfig) enabled() bool { return c.Dist != "" }

// Validate reports configuration errors.
func (c ThinkConfig) Validate() error {
	if !c.enabled() {
		return nil
	}
	switch c.Dist {
	case DistFixed, DistExponential:
	default:
		return fmt.Errorf("loadgen: unknown think-time distribution %q (want %s|%s)",
			c.Dist, DistFixed, DistExponential)
	}
	if c.Mean <= 0 {
		return fmt.Errorf("loadgen: think time needs mean > 0, got %v", c.Mean)
	}
	return nil
}

// draw returns one think-time pause.
func (c ThinkConfig) draw(stream *rng.Stream) time.Duration {
	if c.Dist == DistExponential {
		return time.Duration(stream.Exp(1/c.Mean.Seconds()) * float64(time.Second))
	}
	return c.Mean
}

// ClassConfig is one client class of a workload mix: a fraction of the
// aggregate offered load with its own arrival process, think time and
// request-size distribution. Every generator thread runs every class —
// a class's per-thread rate is Fraction × RateQPS / threads — so class
// mixes do not change the deployment shape.
type ClassConfig struct {
	// Name labels the class in specs and diagnostics.
	Name string
	// Fraction is the class's share of Config.RateQPS. The fractions of
	// a mix must sum to 1.
	Fraction float64
	// Arrival selects the class's inter-arrival process (zero value =
	// Poisson).
	Arrival workload.ArrivalConfig
	// Think optionally adds a per-request think-time pause.
	Think ThinkConfig
	// Size optionally draws the request wire size instead of using the
	// payload's own.
	Size SizeConfig
}

// Validate reports configuration errors for one class.
func (c ClassConfig) Validate() error {
	if c.Fraction <= 0 || math.IsNaN(c.Fraction) || c.Fraction > 1 {
		return fmt.Errorf("loadgen: class %q fraction %v outside (0, 1]", c.Name, c.Fraction)
	}
	if err := c.Arrival.Validate(); err != nil {
		return fmt.Errorf("loadgen: class %q: %w", c.Name, err)
	}
	if err := c.Think.Validate(); err != nil {
		return fmt.Errorf("loadgen: class %q: %w", c.Name, err)
	}
	if err := c.Size.Validate(); err != nil {
		return fmt.Errorf("loadgen: class %q: %w", c.Name, err)
	}
	return nil
}

// ValidateClasses reports errors for a whole mix: every class valid and
// the fractions summing to 1 (±1e-6), so no share of the offered load
// is silently dropped or double-counted.
func ValidateClasses(classes []ClassConfig) error {
	if len(classes) == 0 {
		return nil
	}
	var sum float64
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return err
		}
		sum += c.Fraction
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("loadgen: class fractions sum to %v, want 1", sum)
	}
	return nil
}

// PhaseConfig is one phase of a load program: for Duration of virtual
// time the offered rate is multiplied by RateScale (ramping linearly to
// EndScale when set). Phases compose into baseline → intervention →
// recovery experiments and, with EndScale ramps plus Config.PhasesRepeat,
// diurnal load curves.
type PhaseConfig struct {
	// Name labels the phase.
	Name string
	// Duration is the phase length in virtual time; must be positive.
	Duration time.Duration
	// RateScale multiplies the configured rate during this phase
	// (1 = nominal). Must be positive: a phase cannot silence the
	// generator entirely, or open-loop pacing would never fire again.
	RateScale float64
	// EndScale, when positive, ramps the scale linearly from RateScale
	// to EndScale across the phase. 0 keeps RateScale constant.
	EndScale float64
}

// Validate reports configuration errors for one phase.
func (p PhaseConfig) Validate() error {
	if p.Duration <= 0 {
		return fmt.Errorf("loadgen: phase %q duration %v must be positive", p.Name, p.Duration)
	}
	if p.RateScale <= 0 || math.IsNaN(p.RateScale) || math.IsInf(p.RateScale, 0) {
		return fmt.Errorf("loadgen: phase %q rate scale %v must be positive and finite", p.Name, p.RateScale)
	}
	if p.EndScale < 0 || math.IsNaN(p.EndScale) || math.IsInf(p.EndScale, 0) {
		return fmt.Errorf("loadgen: phase %q end scale %v must be positive (or 0 for constant)", p.Name, p.EndScale)
	}
	return nil
}

// ValidatePhases reports errors for a phase program.
func ValidatePhases(phases []PhaseConfig) error {
	for _, p := range phases {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// phaseSchedule is the run-scoped compiled phase program: cumulative
// boundaries for O(len) scale lookup. It is pure configuration — no
// randomness — so it cannot perturb any stream.
type phaseSchedule struct {
	phases []PhaseConfig
	starts []time.Duration // starts[i] = offset of phase i from virtual 0
	total  time.Duration
	repeat bool
}

func newPhaseSchedule(phases []PhaseConfig, repeat bool) *phaseSchedule {
	if len(phases) == 0 {
		return nil
	}
	ps := &phaseSchedule{phases: phases, repeat: repeat, starts: make([]time.Duration, len(phases))}
	var off time.Duration
	for i, p := range phases {
		ps.starts[i] = off
		off += p.Duration
	}
	ps.total = off
	return ps
}

// scaleAt returns the rate multiplier at virtual instant t. Past the end
// of a non-repeating program the last phase's final scale persists.
func (ps *phaseSchedule) scaleAt(t sim.Time) float64 {
	off := t.Sub(sim.Time(0))
	if off < 0 {
		off = 0
	}
	if ps.repeat {
		off %= ps.total
	} else if off >= ps.total {
		last := ps.phases[len(ps.phases)-1]
		if last.EndScale > 0 {
			return last.EndScale
		}
		return last.RateScale
	}
	for i := len(ps.phases) - 1; i >= 0; i-- {
		if off >= ps.starts[i] {
			p := ps.phases[i]
			if p.EndScale <= 0 {
				return p.RateScale
			}
			frac := float64(off-ps.starts[i]) / float64(p.Duration)
			return p.RateScale + (p.EndScale-p.RateScale)*frac
		}
	}
	return ps.phases[0].RateScale // unreachable: off ≥ 0 = starts[0]
}

// scaleGap divides an inter-arrival gap by the phase scale in force at
// the scheduled instant: a 3× phase packs arrivals 3× closer.
func (ps *phaseSchedule) scaleGap(gap time.Duration, at sim.Time) time.Duration {
	return time.Duration(float64(gap) / ps.scaleAt(at))
}

// classState is one thread's run-scoped state for one class of the mix.
type classState struct {
	cfg      *ClassConfig
	arrivals workload.Interarrival
	stream   *rng.Stream // think + size draws
	nextSend sim.Time
}

// scheduleClassSend arms the next send timer for class ci of th, packing
// the class index above the event-kind bits.
func (r *run) scheduleClassSend(th *thread, ci int) {
	cs := &th.classes[ci]
	if cs.nextSend > r.duration {
		return
	}
	r.engine.AtSink(cs.nextSend, r, sim.EventArg{Ptr: th, U64: evSendTimer | uint64(ci)<<evKindBits})
}

// earliestNextSend returns the thread's next scheduled send across its
// classes — the pacing core's sleep-deadline hint.
func (th *thread) earliestNextSend() sim.Time {
	if th.classes == nil {
		return th.nextSend
	}
	earliest := sim.Time(math.MaxInt64)
	for i := range th.classes {
		if ns := th.classes[i].nextSend; ns < earliest {
			earliest = ns
		}
	}
	return earliest
}

// setupClasses builds th's class states for the mix path, consuming
// per-class streams in class order. classes is the synthesized mix (a
// single implicit Poisson class when the config has phases only).
func (r *run) setupClasses(th *thread, classes []ClassConfig, perThreadRate float64, stream *rng.Stream) error {
	th.classes = make([]classState, len(classes))
	for ci := range classes {
		c := &classes[ci]
		arr, err := c.Arrival.New(perThreadRate*c.Fraction, stream.Split())
		if err != nil {
			return err
		}
		th.classes[ci] = classState{cfg: c, arrivals: arr, stream: stream.Split()}
	}
	return nil
}
