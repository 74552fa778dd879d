package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiment"
)

// hostInfo records the host configuration a result was measured on: the
// paper's point is that a number without it cannot be compared. Fields
// the host does not expose are left empty.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Governor   string `json:"governor"`
	CPUMax     string `json:"cgroup_cpu_max"`
}

// procsFor is the GOMAXPROCS a repetition of sc runs with: one P per
// simulation thread, so a single engine gets one and a K-shard run gets
// K, up to the CPU count. With one P the garbage collector's work lands
// in the repetition's wall time instead of on an idle second CPU, whose
// availability on a shared host varies: on hdsearch-lp, where the
// collector takes about 40% of host time, this halved the spread of the
// median between runs.
func procsFor(sc experiment.Scenario) int {
	return min(runtime.NumCPU(), max(sc.Shards, 1))
}

func currentHost() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Governor:   readTrimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
		CPUMax:     readTrimmed("/sys/fs/cgroup/cpu.max"),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// readTrimmed returns a small system file's content, or "" when the host
// does not expose it.
func readTrimmed(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// diff lists the fields in which h differs from base.
func (h hostInfo) diff(base hostInfo) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s %v (baseline %v)", name, a, b))
		}
	}
	add("gomaxprocs", h.GOMAXPROCS, base.GOMAXPROCS)
	add("num_cpu", h.NumCPU, base.NumCPU)
	add("go_version", h.GoVersion, base.GoVersion)
	add("goarch", h.GOARCH, base.GOARCH)
	add("cpu_model", h.CPUModel, base.CPUModel)
	add("governor", h.Governor, base.Governor)
	add("cgroup_cpu_max", h.CPUMax, base.CPUMax)
	return out
}
