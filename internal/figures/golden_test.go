package figures

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/loadgen"
)

// Golden-file regression tests: every renderer's output over a small
// fixed-seed sweep is committed under testdata/ and compared byte for
// byte. They pin two things at once — the renderers themselves, and the
// whole simulation path beneath them: any change to scheduling, backend
// pooling or the store layer that perturbed a single latency sample
// would shift the rendered medians. Regenerate after an intentional
// change with:
//
//	go test ./internal/figures -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output differs from golden file (rerun with -update if the change is intentional)\ngot:\n%s", name, got)
	}
}

// goldenSweep is a reduced study the sweep-backed goldens render: the
// three server variants the Memcached and HDSearch studies use, at two
// load points, three runs each.
func goldenSweep(t *testing.T, service experiment.Service, rates []float64, samples int) *Sweep {
	t.Helper()
	variants := []experiment.ServerVariant{
		experiment.SMTVariants()[0], // SMToff == C1Eoff baseline
		experiment.SMTVariants()[1],
		experiment.C1EVariants()[1],
	}
	sw, err := RunServiceSweep(service, variants, rates,
		SweepOptions{Runs: 3, Seed: 2024, TargetSamples: samples, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestGoldenMemcachedFigures(t *testing.T) {
	sw := goldenSweep(t, experiment.ServiceMemcached, []float64{50_000, 200_000}, 500)
	checkGolden(t, "fig2_small.golden", Fig2(sw))
	checkGolden(t, "fig3_small.golden", Fig3(sw))
	checkGolden(t, "fig8_small.golden", Fig8(sw))
	checkGolden(t, "table4_small.golden", TableIV(sw, 2024).Render())
}

// TestGoldenHDSearchFigure pins HDSearch's simulated output: the bucket's
// search cost and response size both follow the LSH index's candidate
// count, so a change to the index that moved a single query's count
// shifts the rendered medians.
func TestGoldenHDSearchFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("HDSearch sweep is slow under -race")
	}
	sw := goldenSweep(t, experiment.ServiceHDSearch, []float64{1000, 2500}, 300)
	checkGolden(t, "fig4_small.golden", Fig4(sw))
}

// TestGoldenSocialNetFigures pins Social Network's simulated output: the
// Figure 6 sweep over the baseline server, as RunSocialNetStudy runs it,
// and a replicated fleet with a crashed replica, timeouts and retries.
// The fleet's replica shares move if a replica's ResetRun draws one
// split more or fewer from its stream, since cluster.ReplicaSet passes
// replica 0 the set's own stream and splits the same stream for the
// other replicas, the router and the fault schedule.
func TestGoldenSocialNetFigures(t *testing.T) {
	sw, err := RunServiceSweep(experiment.ServiceSocialNet, experiment.SMTVariants()[:1], []float64{200, 600},
		SweepOptions{Runs: 3, Seed: 2024, TargetSamples: 300, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6_small.golden", Fig6(sw))

	fleet := Preset{
		Name:        "socialnet-fleet",
		Description: "3 SocialNet replicas behind consistent hashing, replica 1 crashed mid-run",
		Rates:       []float64{400, 800},
		Scenario: experiment.Scenario{
			Service:  experiment.ServiceSocialNet,
			Client:   hw.LPConfig(),
			Server:   hw.ServerBaselineConfig(),
			Replicas: 3,
			Router:   cluster.RouterConsistentHash,
			Faults: &faults.Plan{
				Crashes: []faults.CrashWindow{{Replica: 1, Start: 0.3, End: 0.6}},
			},
			Resilience: &loadgen.ResilienceConfig{Timeout: 8 * time.Millisecond, Retries: 2},
		},
	}
	pr, err := RunPreset(fleet, SweepOptions{Runs: 2, Seed: 2024, TargetSamples: 300, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "socialnet_fleet_small.golden",
		pr.Render()+"\n\n"+pr.LoadBalanceTable()+"\n\n"+pr.AvailabilityTable()+"\n")
}

func TestGoldenStaticTables(t *testing.T) {
	checkGolden(t, "table1.golden", TableI().Render())
	checkGolden(t, "table2.golden", TableII().Render())
	checkGolden(t, "table3.golden", TableIII().Render())
	checkGolden(t, "recommendations.golden", RecommendationsTable().Render())
	checkGolden(t, "table2.csv.golden", TableII().CSV())
}
