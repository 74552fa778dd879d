package repro_test

import (
	"math"
	"testing"

	"repro"
)

func TestFacadePresets(t *testing.T) {
	lp, hp, srv := repro.LPClient(), repro.HPClient(), repro.ServerBaseline()
	if lp.MaxCState != "C6" || hp.MaxCState != "C0" || srv.MaxCState != "C1" {
		t.Errorf("preset C-states wrong: %s/%s/%s", lp.MaxCState, hp.MaxCState, srv.MaxCState)
	}
	if repro.ClassifyClient(lp) != "not-tuned" || repro.ClassifyClient(hp) != "tuned" {
		t.Error("classification via facade wrong")
	}
	if len(repro.SkylakeCStates()) != 4 {
		t.Errorf("C-state table size = %d", len(repro.SkylakeCStates()))
	}
}

func TestFacadeScenarioRoundTrip(t *testing.T) {
	res, err := repro.RunScenario(repro.Scenario{
		Service:       repro.ServiceSynthetic,
		Label:         "facade",
		Client:        repro.HPClient(),
		Server:        repro.ServerBaseline(),
		RateQPS:       5000,
		Runs:          3,
		TargetSamples: 500,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRunAvgUs) != 3 {
		t.Fatalf("runs = %d", len(res.PerRunAvgUs))
	}
	if res.MedianAvgUs() <= 0 {
		t.Error("no latency measured")
	}
}

func TestFacadeStats(t *testing.T) {
	x := make([]float64, 50)
	for i := range x {
		x[i] = 100 + float64(i%7)
	}
	if repro.Median(x) <= 0 {
		t.Error("median")
	}
	if repro.Percentile(x, 99) < repro.Percentile(x, 50) {
		t.Error("percentiles not monotone")
	}
	if p := repro.Percentile(x, math.NaN()); !math.IsNaN(p) {
		t.Errorf("Percentile(x, NaN) = %v, want NaN", p)
	}
	iv, err := repro.NonParametricCI(x, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lower > iv.Point || iv.Point > iv.Upper {
		t.Error("CI does not bracket median")
	}
	if _, err := repro.ShapiroWilk(x); err != nil {
		t.Errorf("shapiro: %v", err)
	}
	if _, err := repro.JainIterations(x, 0.95, 1); err != nil {
		t.Errorf("jain: %v", err)
	}
	if _, err := repro.Confirm(x, 1); err != nil {
		t.Errorf("confirm: %v", err)
	}
}

func TestFacadeRecommendAndConclusions(t *testing.T) {
	rec := repro.Recommend(repro.GeneratorDesign{
		Loop: repro.OpenLoop, Pacing: repro.TimeSensitive, Point: repro.InApp,
	}, false)
	if rec.ClientConfig == "" || rec.Rationale == "" {
		t.Error("empty recommendation")
	}

	mk := func(base float64) []float64 {
		x := make([]float64, 20)
		for i := range x {
			x[i] = base + float64(i%3)
		}
		return x
	}
	check, err := repro.CheckConclusions(mk(100), mk(80), mk(150), mk(149))
	if err != nil {
		t.Fatal(err)
	}
	if !check.Conflicting() {
		t.Error("expected conflicting conclusions")
	}
}
