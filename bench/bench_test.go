package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/envpool"
	"repro/internal/experiment"
)

// testSamples shrinks each workload to test size; every size keeps the
// sample count's Poisson noise well inside the 10% sanity check.
var testSamples = map[string]int{
	"paper-lp":     3000,
	"hdsearch-lp":  1000,
	"fleet-k2":     4000,
	"faulty-retry": 4000,
}

func TestWorkloadsPrintEveryEndToEndMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			c, err := newChild(name)
			if err != nil {
				t.Fatal(err)
			}
			c.sc.TargetSamples = testSamples[name]
			c.minReps = 2
			rp := c.measure(1, 0)
			if rp.Failed > 0 {
				t.Fatalf("%d failed repetitions: %v", rp.Failed, rp.Errors)
			}
			if rp.Metrics["setup_s"], err = setupChild(name); err != nil {
				t.Fatal(err)
			}

			var out bytes.Buffer
			res := &result{name: name, report: *rp}
			if err := res.print(&out, options{seed: 1}, endToEnd); err != nil {
				t.Fatal(err)
			}
			text := out.String()
			if !strings.Contains(text, "fail_frac 0)") {
				t.Errorf("no zero fail_frac in:\n%s", text)
			}
			for _, m := range endToEnd {
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name+" "+m.name) + ` \S+ ` + regexp.QuoteMeta(m.unit) + `\b`)
				if !line.MatchString(text) {
					t.Errorf("no %s line with unit %s in:\n%s", m.name, m.unit, text)
				}
			}

			lines := strings.Split(strings.TrimSpace(text), "\n")
			var last struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			// golden + 2 timed + replay
			if !last.Correct || last.Attempted != 4 || last.Failed != 0 || len(last.Metrics) != len(endToEnd) {
				t.Errorf("result %+v", last)
			}
			for _, m := range endToEnd {
				if v := last.Metrics[m.name]; v.Unit != m.unit || !(v.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", m.name, v, m.unit)
				}
			}
		})
	}
}

func TestDigestRepeatsAcrossCallsAndShards(t *testing.T) {
	ctx := envpool.NewContext(context.Background(), 1)
	sc, err := loadScenario("fleet-k2")
	if err != nil {
		t.Fatal(err)
	}
	sc.TargetSamples = 20_000
	run := func(shards int, seed uint64) string {
		sc.Shards = shards
		r := runRep(ctx, sc, seed)
		if r.Err != "" {
			t.Fatalf("K=%d seed %d: %s", shards, seed, r.Err)
		}
		return r.Digest
	}
	k2 := run(2, 3)
	if again := run(2, 3); again != k2 {
		t.Errorf("digest changed between two calls: %s, then %s", k2, again)
	}
	if k0 := run(0, 3); k0 != k2 {
		t.Errorf("digest at K=0 %s, at K=2 %s", k0, k2)
	}
	if other := run(2, 4); other == k2 {
		t.Errorf("seeds 3 and 4 share digest %s", k2)
	}
	// Same seed, same simulation, latencies timestamped at the NIC: the
	// sample count stays, the latencies move, and the digest must see it.
	sc.Point = core.NICHardware
	if nic := run(2, 3); nic == k2 {
		t.Errorf("timestamping at the NIC left digest %s unchanged", k2)
	}
}

func TestDigestSeesEveryBitAndPointer(t *testing.T) {
	m := experiment.RunMetrics{AvgUs: 35.433403298081416, Samples: 10}
	base := digest(m)
	ulp := m
	ulp.AvgUs = math.Nextafter(m.AvgUs, math.Inf(1))
	nan := m
	nan.P99Us = math.NaN()
	zeroPtr := m
	zeroPtr.Resilience = &experiment.ResilienceMetrics{}
	for name, v := range map[string]experiment.RunMetrics{"one ulp": ulp, "NaN": nan, "nil vs zero pointer": zeroPtr} {
		if digest(v) == base {
			t.Errorf("%s: digest unchanged", name)
		}
	}
	if digest(nan) != digest(nan) {
		t.Error("NaN digest is not repeatable")
	}
}

func TestNearestRankP75LeavesTenBeyondAtForty(t *testing.T) {
	x := make([]float64, 40)
	for i := range x {
		x[i] = float64(40 - i) // reversed, so the rule must sort
	}
	p75 := nearestRank(x, 75)
	beyond := 0
	for _, v := range x {
		if v > p75 {
			beyond++
		}
	}
	if p75 != 30 || beyond != 10 {
		t.Errorf("p75 = %v with %d beyond, want 30 with 10 beyond", p75, beyond)
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	var wl []metric
	for _, n := range workloadNames {
		wl = append(wl, metric{name: n})
	}
	check("workloads", b.Workloads, wl)
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}
