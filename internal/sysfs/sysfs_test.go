package sysfs

import (
	"strings"
	"testing"

	"repro/internal/hw"
)

func newFS(t *testing.T, cfg hw.Config) *FS {
	t.Helper()
	f, err := New(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestReadCpufreqFiles(t *testing.T) {
	f := newFS(t, hw.LPConfig())
	cases := map[string]string{
		"/sys/devices/system/cpu/cpu0/cpufreq/scaling_driver":   "intel_pstate",
		"/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor": "powersave",
		"/sys/devices/system/cpu/cpu19/cpufreq/scaling_driver":  "intel_pstate", // SMT on → 20 threads
		"/sys/devices/system/cpu/cpu0/cpufreq/scaling_min_freq": "800000",
		"/sys/devices/system/cpu/cpu0/cpufreq/scaling_max_freq": "3000000",
	}
	for path, want := range cases {
		got, err := f.Read(path)
		if err != nil {
			t.Errorf("Read(%s): %v", path, err)
			continue
		}
		if got != want {
			t.Errorf("Read(%s) = %q, want %q", path, got, want)
		}
	}
}

func TestReadNonexistentCPU(t *testing.T) {
	f := newFS(t, hw.ServerBaselineConfig()) // SMT off → 10 threads
	if _, err := f.Read("/sys/devices/system/cpu/cpu15/cpufreq/scaling_driver"); err == nil {
		t.Error("read of offline cpu succeeded")
	}
}

func TestSMTControl(t *testing.T) {
	f := newFS(t, hw.LPConfig())
	if got, _ := f.Read("/sys/devices/system/cpu/smt/control"); got != "on" {
		t.Errorf("smt control = %q, want on", got)
	}
	if err := f.Write("/sys/devices/system/cpu/smt/control", "off"); err != nil {
		t.Fatal(err)
	}
	if f.Config().SMT {
		t.Error("config SMT still on after sysfs write")
	}
	if got, _ := f.Read("/sys/devices/system/cpu/smt/active"); got != "0" {
		t.Errorf("smt active = %q, want 0", got)
	}
	if err := f.Write("/sys/devices/system/cpu/smt/control", "banana"); err == nil {
		t.Error("bogus smt value accepted")
	}
}

func TestGovernorViaCpupowerAndSysfs(t *testing.T) {
	f := newFS(t, hw.LPConfig())
	if err := f.SetGovernor("performance"); err != nil {
		t.Fatal(err)
	}
	if f.Config().Governor != hw.GovernorPerformance {
		t.Error("cpupower governor change not applied")
	}
	if err := f.Write("/sys/devices/system/cpu/cpu3/cpufreq/scaling_governor", "powersave"); err != nil {
		t.Fatal(err)
	}
	if f.Config().Governor != hw.GovernorPowersave {
		t.Error("sysfs governor change not applied")
	}
	if err := f.SetGovernor("ondemand"); err == nil {
		t.Error("unknown governor accepted")
	}
}

func TestBootTimeOnlyKnobsRejectRuntimeWrites(t *testing.T) {
	f := newFS(t, hw.LPConfig())
	if err := f.Write("/sys/module/intel_idle/parameters/max_cstate", "0"); err == nil {
		t.Error("runtime max_cstate write accepted")
	}
	if err := f.Write("/sys/devices/system/cpu/cpu0/cpufreq/scaling_driver", "acpi-cpufreq"); err == nil {
		t.Error("runtime driver write accepted")
	}
}

func TestTurboViaMSR0x1A0(t *testing.T) {
	f := newFS(t, hw.LPConfig())
	v, err := f.ReadMSR(MSRMiscEnable)
	if err != nil {
		t.Fatal(err)
	}
	if v&(1<<turboDisableBit) != 0 {
		t.Error("turbo-disable bit set while turbo on")
	}
	if err := f.WriteMSR(MSRMiscEnable, 1<<turboDisableBit); err != nil {
		t.Fatal(err)
	}
	if f.Config().Turbo {
		t.Error("turbo still enabled after MSR disable write")
	}
	if err := f.WriteMSR(MSRMiscEnable, 0); err != nil {
		t.Fatal(err)
	}
	if !f.Config().Turbo {
		t.Error("turbo not re-enabled")
	}
}

func TestUncoreViaMSR0x620(t *testing.T) {
	f := newFS(t, hw.LPConfig()) // dynamic uncore
	v, err := f.ReadMSR(MSRUncoreRatioLimit)
	if err != nil {
		t.Fatal(err)
	}
	if minR, maxR := (v>>8)&0x7f, v&0x7f; minR == maxR {
		t.Error("dynamic uncore should expose min ratio < max ratio")
	}
	// Pin min == max → fixed uncore, the paper's HP/server setting.
	if err := f.WriteMSR(MSRUncoreRatioLimit, 22|22<<8); err != nil {
		t.Fatal(err)
	}
	if f.Config().UncoreDynamic {
		t.Error("uncore still dynamic after pinning ratios")
	}
	if err := f.WriteMSR(MSRUncoreRatioLimit, 10|22<<8); err == nil {
		t.Error("min ratio above max accepted")
	}
}

func TestUnimplementedMSR(t *testing.T) {
	f := newFS(t, hw.LPConfig())
	if _, err := f.ReadMSR(0x10); err == nil {
		t.Error("read of unimplemented MSR succeeded")
	}
	if err := f.WriteMSR(0x10, 1); err == nil {
		t.Error("write of unimplemented MSR succeeded")
	}
}

func TestCmdlineRoundTrip(t *testing.T) {
	lp := newFS(t, hw.LPConfig())
	cmd := lp.Cmdline()
	if !strings.Contains(cmd, "intel_idle.max_cstate=3") {
		t.Errorf("LP cmdline = %q, want max_cstate=3", cmd)
	}
	if strings.Contains(cmd, "intel_pstate=disable") {
		t.Errorf("LP cmdline = %q should keep intel_pstate", cmd)
	}

	hp := newFS(t, hw.HPConfig())
	cmd = hp.Cmdline()
	if !strings.Contains(cmd, "idle=poll") {
		t.Errorf("HP cmdline = %q, want idle=poll", cmd)
	}
	if !strings.Contains(cmd, "intel_pstate=disable") {
		t.Errorf("HP cmdline = %q, want intel_pstate=disable", cmd)
	}

	// Applying the HP cmdline to an LP system flips the boot knobs.
	if err := lp.ApplyCmdline(cmd); err != nil {
		t.Fatal(err)
	}
	got := lp.Config()
	if got.MaxCState != "C0" || got.Driver != hw.DriverACPICpufreq {
		t.Errorf("after HP cmdline: MaxCState=%s Driver=%s", got.MaxCState, got.Driver)
	}
}

func TestApplyCmdlineFlags(t *testing.T) {
	f := newFS(t, hw.HPConfig())
	if err := f.ApplyCmdline("intel_idle.max_cstate=2 intel_pstate=enable nohz=on quiet splash"); err != nil {
		t.Fatal(err)
	}
	cfg := f.Config()
	if cfg.MaxCState != "C1E" {
		t.Errorf("MaxCState = %s, want C1E", cfg.MaxCState)
	}
	if cfg.Driver != hw.DriverIntelPstate {
		t.Errorf("Driver = %s, want intel_pstate", cfg.Driver)
	}
	if !cfg.Tickless {
		t.Error("nohz=on not applied")
	}
	if err := f.ApplyCmdline("intel_idle.max_cstate=99"); err == nil {
		t.Error("out-of-range max_cstate accepted")
	}
}

func TestCpuidleStates(t *testing.T) {
	f := newFS(t, hw.ServerBaselineConfig()) // max C1 → states 0,1
	name, err := f.Read("/sys/devices/system/cpu/cpu0/cpuidle/state1/name")
	if err != nil {
		t.Fatal(err)
	}
	if name != "C1" {
		t.Errorf("state1 name = %q, want C1", name)
	}
	lat, err := f.Read("/sys/devices/system/cpu/cpu0/cpuidle/state1/latency")
	if err != nil {
		t.Fatal(err)
	}
	if lat != "2" {
		t.Errorf("C1 latency = %q µs, want 2", lat)
	}
	if _, err := f.Read("/sys/devices/system/cpu/cpu0/cpuidle/state2/name"); err == nil {
		t.Error("state beyond max C-state visible")
	}
}

func TestProcCmdlineAndOnline(t *testing.T) {
	f := newFS(t, hw.LPConfig())
	cmd, err := f.Read("/proc/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	if cmd != f.Cmdline() {
		t.Error("/proc/cmdline disagrees with Cmdline()")
	}
	online, err := f.Read("/sys/devices/system/cpu/online")
	if err != nil {
		t.Fatal(err)
	}
	if online != "0-19" {
		t.Errorf("online = %q, want 0-19 (10 cores, SMT on)", online)
	}
}

func TestListCoversReadableFiles(t *testing.T) {
	f := newFS(t, hw.LPConfig())
	paths := f.List()
	if len(paths) < 50 {
		t.Fatalf("List returned only %d paths", len(paths))
	}
	for _, p := range paths {
		if _, err := f.Read(p); err != nil {
			t.Errorf("listed path %s not readable: %v", p, err)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := hw.LPConfig()
	bad.MaxCState = "C8"
	for _, tc := range []struct {
		name  string
		cfg   hw.Config
		cores int
	}{
		{"max C-state", bad, 10},
		{"zero cores", hw.LPConfig(), 0},
		{"negative cores", hw.LPConfig(), -1},
	} {
		if _, err := New(tc.cfg, tc.cores); err == nil {
			t.Errorf("%s: New(cfg, %d) accepted", tc.name, tc.cores)
		}
	}
}
