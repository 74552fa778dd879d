// Package hw models the client- and server-side hardware configuration
// knobs the paper studies (§IV-C): C-states, frequency driver and governor,
// turbo mode, simultaneous multithreading, uncore frequency, and the
// tickless kernel setting — and the microsecond-scale timing overheads they
// inject into a request's path.
//
// The model is a per-core state machine over virtual time. A core is either
// busy (executing work whose duration is scaled by the current frequency)
// or idle (resident in a C-state chosen by a menu-style idle governor).
// Waking from idle costs the C-state's exit latency; with a powersave
// governor the core additionally restarts at its minimum frequency and
// ramps up, which stretches the first microseconds of work after a wake —
// exactly the overhead chain the paper describes for a query timestamp
// ("a C-state transition (2us - 200us), a DVFS transition (~30us), and a
// context switch (~25us)", §V-A).
package hw

import (
	"fmt"
)

// FreqDriver selects the CPUFreq driver, the kernel component that
// communicates frequency/voltage settings to the hardware (§IV-C).
type FreqDriver int

const (
	// DriverIntelPstate is the intel_pstate driver (hardware-managed
	// P-states). The paper's LP client uses it.
	DriverIntelPstate FreqDriver = iota
	// DriverACPICpufreq is the acpi-cpufreq driver. The paper's HP client
	// and server baseline use it.
	DriverACPICpufreq
)

func (d FreqDriver) String() string {
	switch d {
	case DriverIntelPstate:
		return "intel_pstate"
	case DriverACPICpufreq:
		return "acpi-cpufreq"
	}
	return fmt.Sprintf("FreqDriver(%d)", int(d))
}

// Governor selects the CPUFreq governor, the heuristic that decides the
// operating frequency (§IV-C).
type Governor int

const (
	// GovernorPowersave tracks load: a core that just woke from idle runs
	// at its minimum frequency and ramps up (legacy DVFS transition ≈30 µs,
	// Gendler et al. [15]).
	GovernorPowersave Governor = iota
	// GovernorPerformance pins the maximum frequency at all times.
	GovernorPerformance
)

func (g Governor) String() string {
	switch g {
	case GovernorPowersave:
		return "powersave"
	case GovernorPerformance:
		return "performance"
	}
	return fmt.Sprintf("Governor(%d)", int(g))
}

// Config is the full hardware configuration of one machine — one column of
// the paper's Table II.
type Config struct {
	Name string

	// MaxCState is the deepest C-state the idle loop may enter: one of
	// "C0", "C1", "C1E", "C6". "C0" means idle=poll — the core busy-polls
	// and never pays an exit latency.
	MaxCState string

	Driver   FreqDriver
	Governor Governor

	// Turbo allows the clock to exceed the nominal frequency when few
	// cores are active (MSR 0x1A0 in the paper's methodology).
	Turbo bool

	// SMT exposes two hardware threads per physical core.
	SMT bool

	// UncoreDynamic lets the uncore (LLC, IO) clock down when the socket
	// idles; the first wake then pays an extra uncore ramp (MSR 0x620).
	// When false the uncore frequency is fixed.
	UncoreDynamic bool

	// Tickless omits the periodic scheduling-clock interrupt on idle
	// cores (nohz). With Tickless false, a periodic tick bounds idle
	// residency and briefly wakes idle cores.
	Tickless bool

	// Frequency points in GHz.
	MinFreqGHz     float64
	NominalFreqGHz float64
	TurboFreqGHz   float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.MaxCState {
	case "C0", "C1", "C1E", "C6":
	default:
		return fmt.Errorf("hw: unknown max C-state %q", c.MaxCState)
	}
	if c.MinFreqGHz <= 0 || c.NominalFreqGHz < c.MinFreqGHz {
		return fmt.Errorf("hw: invalid frequency range min=%v nominal=%v", c.MinFreqGHz, c.NominalFreqGHz)
	}
	if c.Turbo && c.TurboFreqGHz < c.NominalFreqGHz {
		return fmt.Errorf("hw: turbo frequency %v below nominal %v", c.TurboFreqGHz, c.NominalFreqGHz)
	}
	return nil
}

// MaxFreqGHz returns the highest reachable frequency under this config.
func (c Config) MaxFreqGHz() float64 {
	if c.Turbo {
		return c.TurboFreqGHz
	}
	return c.NominalFreqGHz
}

// The frequency points of the paper's testbed: Intel Xeon Silver 4114
// (Skylake), nominal 2.2 GHz, minimum 0.8 GHz, max turbo 3.0 GHz (§IV-A).
const (
	SkylakeMinGHz     = 0.8
	SkylakeNominalGHz = 2.2
	SkylakeTurboGHz   = 3.0
)

// LPConfig returns the paper's low-power client configuration (Table II):
// the system default a configuration-agnostic user would run — all C-states
// enabled, intel_pstate powersave, turbo on, SMT on, dynamic uncore,
// periodic tick.
func LPConfig() Config {
	return Config{
		Name:           "LP",
		MaxCState:      "C6",
		Driver:         DriverIntelPstate,
		Governor:       GovernorPowersave,
		Turbo:          true,
		SMT:            true,
		UncoreDynamic:  true,
		Tickless:       false,
		MinFreqGHz:     SkylakeMinGHz,
		NominalFreqGHz: SkylakeNominalGHz,
		TurboFreqGHz:   SkylakeTurboGHz,
	}
}

// HPConfig returns the paper's high-performance client configuration
// (Table II): C-states off (idle=poll), acpi-cpufreq performance, turbo on,
// SMT on, fixed uncore, periodic tick.
func HPConfig() Config {
	return Config{
		Name:           "HP",
		MaxCState:      "C0",
		Driver:         DriverACPICpufreq,
		Governor:       GovernorPerformance,
		Turbo:          true,
		SMT:            true,
		UncoreDynamic:  false,
		Tickless:       false,
		MinFreqGHz:     SkylakeMinGHz,
		NominalFreqGHz: SkylakeNominalGHz,
		TurboFreqGHz:   SkylakeTurboGHz,
	}
}

// Clients returns the paper's two client configurations (Table II) in
// table order: LP, then HP.
func Clients() []Config { return []Config{LPConfig(), HPConfig()} }

// ClientByName returns the configuration in Clients whose Name is name.
func ClientByName(name string) (Config, bool) {
	for _, c := range Clients() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// ServerBaselineConfig returns the paper's server-side baseline (Table II):
// C0+C1 only, acpi-cpufreq performance, turbo off, SMT off, fixed uncore,
// tickless on — chosen empirically to avoid high variability.
func ServerBaselineConfig() Config {
	return Config{
		Name:           "server-baseline",
		MaxCState:      "C1",
		Driver:         DriverACPICpufreq,
		Governor:       GovernorPerformance,
		Turbo:          false,
		SMT:            false,
		UncoreDynamic:  false,
		Tickless:       true,
		MinFreqGHz:     SkylakeMinGHz,
		NominalFreqGHz: SkylakeNominalGHz,
		TurboFreqGHz:   SkylakeTurboGHz,
	}
}

// WithSMT returns a copy of c with SMT set — the server-side feature under
// study in Figures 2 and 4.
func (c Config) WithSMT(on bool) Config {
	c.SMT = on
	if on {
		c.Name += "+SMT"
	}
	return c
}

// WithMaxCState returns a copy of c with the deepest allowed C-state set —
// used for the server-side C1E studies in Figures 3 and 4.
func (c Config) WithMaxCState(state string) Config {
	c.MaxCState = state
	c.Name += "+" + state
	return c
}
