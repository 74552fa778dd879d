package figures

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/loadgen"
)

// runFaulty executes the faulty-cluster preset at smoke scale (the CI
// shape) under the given worker and shard counts.
func runFaulty(t *testing.T, workers, shards int) *PresetResult {
	t.Helper()
	p, ok := PresetByName("faulty-cluster")
	if !ok {
		t.Fatal("faulty-cluster preset missing")
	}
	pr, err := RunPreset(p, SweepOptions{Runs: 2, Seed: 7, TargetSamples: 400, Workers: workers, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestGoldenFaultyClusterTables pins the fault renderings — and the
// whole fault-injection and resilience path beneath them — over the
// smoke-scale faulty-cluster preset.
func TestGoldenFaultyClusterTables(t *testing.T) {
	pr := runFaulty(t, 1, 0)
	if !pr.Faulty() {
		t.Fatal("faulty-cluster preset produced no resilience metrics")
	}
	for i, res := range pr.Results {
		if len(resilienceMetrics(res)) != len(res.Runs) {
			t.Fatalf("rate %d: %d of %d runs carry resilience metrics",
				i, len(resilienceMetrics(res)), len(res.Runs))
		}
		if len(clusterStats(res)) != len(res.Runs) {
			t.Fatalf("rate %d: %d of %d runs carry cluster stats",
				i, len(clusterStats(res)), len(res.Runs))
		}
	}
	checkGolden(t, "availability_small.golden", pr.AvailabilityTable())
	checkGolden(t, "fault_timeline_small.golden", pr.FaultTimelineTable())
}

// TestGoldenLinkLossFleet pins the draw order of a degraded link: a
// fleet whose client links triple their delay and drop 5% of messages
// for the middle fifth of each run, with timeouts and retries recovering
// the drops. Inside the loss window a link draws its loss from the
// stream it draws its jitter from, jitter first, so a link that drew
// jitter ahead of a loss draw would move every latency after the window
// opens.
func TestGoldenLinkLossFleet(t *testing.T) {
	p := Preset{
		Name:        "link-loss-fleet",
		Description: "4 Memcached replicas behind consistent hashing, client links slowed and lossy mid-run",
		Rates:       []float64{100_000, 400_000},
		Scenario: experiment.Scenario{
			Service:  experiment.ServiceMemcached,
			Client:   hw.LPConfig(),
			Server:   hw.ServerBaselineConfig(),
			Replicas: 4,
			Router:   cluster.RouterConsistentHash,
			Faults: &faults.Plan{
				Link: []faults.LinkWindow{{Start: 0.4, End: 0.6, DelayFactor: 3, Loss: 0.05}},
			},
			Resilience: &loadgen.ResilienceConfig{
				Timeout:   2 * time.Millisecond,
				Retries:   2,
				RetryBase: 200 * time.Microsecond,
				RetryCap:  2 * time.Millisecond,
			},
		},
	}
	pr, err := RunPreset(p, SweepOptions{Runs: 2, Seed: 2024, TargetSamples: 4000, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "link_loss_fleet_small.golden",
		pr.Render()+"\n\n"+pr.LoadBalanceTable()+"\n\n"+pr.AvailabilityTable()+"\n")
}

// TestFaultyClusterByteIdentical is the PR's acceptance invariant: the
// faulty-cluster preset — crash window, health-aware routing, timeouts
// and retries — produces byte-identical run metrics and renderings at
// any repetition-worker count and any shard count.
func TestFaultyClusterByteIdentical(t *testing.T) {
	base := runFaulty(t, 1, 0)
	cases := []struct {
		name            string
		workers, shards int
	}{
		{"parallel-4", 4, 0},
		{"shards-2", 1, 2},
		{"parallel-4-shards-4", 4, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runFaulty(t, c.workers, c.shards)
			for i := range base.Results {
				if !reflect.DeepEqual(base.Results[i].Runs, got.Results[i].Runs) {
					t.Errorf("rate %s: run metrics differ from the sequential single-engine baseline",
						FormatRate(base.Preset.Rates[i]))
				}
			}
			if base.AvailabilityTable() != got.AvailabilityTable() {
				t.Error("availability tables differ")
			}
			if base.FaultTimelineTable() != got.FaultTimelineTable() {
				t.Error("fault-timeline tables differ")
			}
		})
	}
}

// TestFaultTablesWithoutStats pins the renderers' placeholder path: a
// fault-free preset result renders both tables without panicking.
func TestFaultTablesWithoutStats(t *testing.T) {
	p, _ := PresetByName("million-qps")
	pr := &PresetResult{Preset: p, Results: make([]experiment.Result, len(p.Rates))}
	if pr.Faulty() {
		t.Error("fault-free result reports Faulty")
	}
	if av := pr.AvailabilityTable(); !strings.Contains(av, "(no resilience stats)") {
		t.Errorf("availability placeholder missing:\n%s", av)
	}
	if ft := pr.FaultTimelineTable(); !strings.Contains(ft, "(no cluster stats)") {
		t.Errorf("timeline placeholder missing:\n%s", ft)
	}
}
