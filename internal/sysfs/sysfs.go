// Package sysfs emulates the Linux configuration surfaces the paper uses to
// tune hardware knobs (§IV-C): the sysfs tree, kernel (grub) command-line
// flags, model-specific registers (MSR 0x1A0 for turbo, MSR 0x620 for the
// uncore frequency), and the cpupower governor wrapper.
//
// The emulation is two-way: a tree is materialized from an hw.Config, and
// writes through any of the interfaces update the config, so tools and
// examples configure the simulated machines exactly the way the paper
// configures its testbed — including the property that some knobs (C-states,
// frequency driver, tickless) only change via the boot command line, not at
// runtime.
package sysfs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hw"
)

// MSR addresses the paper names.
const (
	// MSRMiscEnable is IA32_MISC_ENABLE (0x1A0); bit 38 disables turbo.
	MSRMiscEnable = 0x1a0
	// MSRUncoreRatioLimit (0x620) holds the uncore min/max ratio limits.
	MSRUncoreRatioLimit = 0x620

	turboDisableBit = 38
)

// FS is a virtual configuration filesystem bound to one machine config.
type FS struct {
	cfg   hw.Config
	cores int
	msr   map[uint32]uint64
}

// New builds a virtual tree for a machine with the given number of physical
// cores under cfg. The machine needs at least one core.
func New(cfg hw.Config, physicalCores int) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if physicalCores < 1 {
		return nil, fmt.Errorf("sysfs: %d physical cores, want at least 1", physicalCores)
	}
	fs := &FS{cfg: cfg, cores: physicalCores, msr: make(map[uint32]uint64)}
	fs.syncMSR()
	return fs, nil
}

// Config returns the configuration currently described by the tree.
func (f *FS) Config() hw.Config { return f.cfg }

func (f *FS) syncMSR() {
	var misc uint64
	if !f.cfg.Turbo {
		misc |= 1 << turboDisableBit
	}
	f.msr[MSRMiscEnable] = misc

	// 0x620: bits 0-6 max ratio, bits 8-14 min ratio, in 100 MHz units.
	// A fixed uncore pins min == max (the paper's HP/server settings).
	maxRatio := uint64(f.cfg.NominalFreqGHz * 10)
	minRatio := maxRatio
	if f.cfg.UncoreDynamic {
		minRatio = uint64(f.cfg.MinFreqGHz * 10)
	}
	f.msr[MSRUncoreRatioLimit] = maxRatio | minRatio<<8
}

// threadCount returns the number of visible CPUs (threads).
func (f *FS) threadCount() int {
	if f.cfg.SMT {
		return f.cores * 2
	}
	return f.cores
}

// cpuidle state table paths expose names and latencies like
// /sys/devices/system/cpu/cpu0/cpuidle/stateN/{name,latency,disable}.
func (f *FS) enabledStateNames() []string {
	var names []string
	for _, s := range hw.SkylakeCStates {
		names = append(names, s.Name)
		if s.Name == f.cfg.MaxCState {
			break
		}
	}
	return names
}

// Read returns the contents of a virtual file.
func (f *FS) Read(path string) (string, error) {
	switch {
	case path == "/sys/devices/system/cpu/smt/control":
		if f.cfg.SMT {
			return "on", nil
		}
		return "off", nil
	case path == "/sys/devices/system/cpu/smt/active":
		if f.cfg.SMT {
			return "1", nil
		}
		return "0", nil
	case path == "/sys/module/intel_idle/parameters/max_cstate":
		return strconv.Itoa(f.maxCStateIndex()), nil
	case path == "/proc/cmdline":
		return f.Cmdline(), nil
	case path == "/sys/devices/system/cpu/online":
		return fmt.Sprintf("0-%d", f.threadCount()-1), nil
	}

	// Per-CPU cpufreq files.
	var cpu int
	var leaf string
	if n, _ := fmt.Sscanf(path, "/sys/devices/system/cpu/cpu%d/cpufreq/%s", &cpu, &leaf); n == 2 {
		if cpu < 0 || cpu >= f.threadCount() {
			return "", fmt.Errorf("sysfs: no such cpu %d", cpu)
		}
		switch leaf {
		case "scaling_driver":
			return f.cfg.Driver.String(), nil
		case "scaling_governor":
			return f.cfg.Governor.String(), nil
		case "scaling_min_freq":
			return strconv.Itoa(int(f.cfg.MinFreqGHz * 1e6)), nil
		case "scaling_max_freq":
			return strconv.Itoa(int(f.cfg.MaxFreqGHz() * 1e6)), nil
		case "cpuinfo_min_freq":
			return strconv.Itoa(int(hw.SkylakeMinGHz * 1e6)), nil
		case "cpuinfo_max_freq":
			return strconv.Itoa(int(hw.SkylakeTurboGHz * 1e6)), nil
		}
		return "", fmt.Errorf("sysfs: unknown cpufreq file %q", leaf)
	}

	// Per-CPU cpuidle files.
	var state int
	if n, _ := fmt.Sscanf(path, "/sys/devices/system/cpu/cpu%d/cpuidle/state%d/%s", &cpu, &state, &leaf); n == 3 {
		if cpu < 0 || cpu >= f.threadCount() {
			return "", fmt.Errorf("sysfs: no such cpu %d", cpu)
		}
		names := f.enabledStateNames()
		if state < 0 || state >= len(names) {
			return "", fmt.Errorf("sysfs: no such cpuidle state %d", state)
		}
		cs, _ := hw.CStateByName(names[state])
		switch leaf {
		case "name":
			return cs.Name, nil
		case "latency":
			return strconv.Itoa(int(cs.ExitLatency.Microseconds())), nil
		case "residency":
			return strconv.Itoa(int(cs.TargetResidency.Microseconds())), nil
		}
		return "", fmt.Errorf("sysfs: unknown cpuidle file %q", leaf)
	}

	return "", fmt.Errorf("sysfs: no such file %q", path)
}

// Write updates a runtime-tunable knob. Writes to boot-time-only knobs
// (C-states, driver, tickless) return an error directing the caller to the
// kernel command line, mirroring real systems.
func (f *FS) Write(path, value string) error {
	value = strings.TrimSpace(value)
	switch {
	case path == "/sys/devices/system/cpu/smt/control":
		switch value {
		case "on":
			f.cfg.SMT = true
		case "off":
			f.cfg.SMT = false
		default:
			return fmt.Errorf("sysfs: invalid smt control %q", value)
		}
		return nil
	case path == "/sys/module/intel_idle/parameters/max_cstate":
		return fmt.Errorf("sysfs: max_cstate is boot-time only; set intel_idle.max_cstate on the kernel command line")
	}
	var cpu int
	var leaf string
	if n, _ := fmt.Sscanf(path, "/sys/devices/system/cpu/cpu%d/cpufreq/%s", &cpu, &leaf); n == 2 {
		if cpu < 0 || cpu >= f.threadCount() {
			return fmt.Errorf("sysfs: no such cpu %d", cpu)
		}
		switch leaf {
		case "scaling_governor":
			return f.SetGovernor(value)
		case "scaling_driver":
			return fmt.Errorf("sysfs: scaling_driver is boot-time only; set intel_pstate=disable on the kernel command line")
		}
		return fmt.Errorf("sysfs: cpufreq file %q is not writable", leaf)
	}
	return fmt.Errorf("sysfs: no such writable file %q", path)
}

// SetGovernor is the cpupower wrapper: `cpupower frequency-set -g <gov>`.
func (f *FS) SetGovernor(name string) error {
	switch name {
	case "powersave":
		f.cfg.Governor = hw.GovernorPowersave
	case "performance":
		f.cfg.Governor = hw.GovernorPerformance
	default:
		return fmt.Errorf("sysfs: unknown governor %q", name)
	}
	return nil
}

// ReadMSR returns the value of a model-specific register.
func (f *FS) ReadMSR(addr uint32) (uint64, error) {
	v, ok := f.msr[addr]
	if !ok {
		return 0, fmt.Errorf("sysfs: unimplemented MSR %#x", addr)
	}
	return v, nil
}

// WriteMSR updates a model-specific register and propagates the effect to
// the configuration — the paper uses MSR 0x1A0 to toggle turbo and MSR
// 0x620 to pin the uncore frequency.
func (f *FS) WriteMSR(addr uint32, value uint64) error {
	switch addr {
	case MSRMiscEnable:
		f.cfg.Turbo = value&(1<<turboDisableBit) == 0
	case MSRUncoreRatioLimit:
		maxRatio := value & 0x7f
		minRatio := (value >> 8) & 0x7f
		if minRatio > maxRatio {
			return fmt.Errorf("sysfs: uncore min ratio %d above max %d", minRatio, maxRatio)
		}
		f.cfg.UncoreDynamic = minRatio != maxRatio
	default:
		return fmt.Errorf("sysfs: unimplemented MSR %#x", addr)
	}
	f.msr[addr] = value
	return nil
}

// maxCStateIndex maps the config's deepest state to the intel_idle
// max_cstate numbering (C0=0, C1=1, C1E=2, C6=3).
func (f *FS) maxCStateIndex() int {
	for i, s := range hw.SkylakeCStates {
		if s.Name == f.cfg.MaxCState {
			return i
		}
	}
	return 0
}

// Cmdline renders the kernel command line corresponding to the boot-time
// knobs of the current configuration, as the paper passes via grub.
func (f *FS) Cmdline() string {
	var parts []string
	if f.cfg.MaxCState == "C0" {
		parts = append(parts, "idle=poll")
	} else {
		parts = append(parts, fmt.Sprintf("intel_idle.max_cstate=%d", f.maxCStateIndex()))
	}
	if f.cfg.Driver == hw.DriverACPICpufreq {
		parts = append(parts, "intel_pstate=disable")
	}
	if f.cfg.Tickless {
		parts = append(parts, "nohz=on")
	} else {
		parts = append(parts, "nohz=off")
	}
	return strings.Join(parts, " ")
}

// ApplyCmdline parses kernel command-line flags and applies the boot-time
// knobs, returning the resulting configuration. Unknown flags are ignored,
// as a kernel would.
func (f *FS) ApplyCmdline(cmdline string) error {
	for _, tok := range strings.Fields(cmdline) {
		switch {
		case tok == "idle=poll":
			f.cfg.MaxCState = "C0"
		case strings.HasPrefix(tok, "intel_idle.max_cstate="):
			v, err := strconv.Atoi(strings.TrimPrefix(tok, "intel_idle.max_cstate="))
			if err != nil || v < 0 || v >= len(hw.SkylakeCStates) {
				return fmt.Errorf("sysfs: bad max_cstate flag %q", tok)
			}
			f.cfg.MaxCState = hw.SkylakeCStates[v].Name
		case tok == "intel_pstate=disable":
			f.cfg.Driver = hw.DriverACPICpufreq
		case tok == "intel_pstate=enable":
			f.cfg.Driver = hw.DriverIntelPstate
		case tok == "nohz=on":
			f.cfg.Tickless = true
		case tok == "nohz=off":
			f.cfg.Tickless = false
		}
	}
	f.syncMSR()
	return nil
}

// List enumerates the virtual files present, for the sysfsctl tool.
func (f *FS) List() []string {
	paths := []string{
		"/proc/cmdline",
		"/sys/devices/system/cpu/online",
		"/sys/devices/system/cpu/smt/control",
		"/sys/devices/system/cpu/smt/active",
		"/sys/module/intel_idle/parameters/max_cstate",
	}
	for cpu := 0; cpu < f.threadCount(); cpu++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu%d", cpu)
		for _, leaf := range []string{"scaling_driver", "scaling_governor", "scaling_min_freq", "scaling_max_freq", "cpuinfo_min_freq", "cpuinfo_max_freq"} {
			paths = append(paths, base+"/cpufreq/"+leaf)
		}
		for i := range f.enabledStateNames() {
			for _, leaf := range []string{"name", "latency", "residency"} {
				paths = append(paths, fmt.Sprintf("%s/cpuidle/state%d/%s", base, i, leaf))
			}
		}
	}
	sort.Strings(paths)
	return paths
}
