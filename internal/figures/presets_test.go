package figures

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

func TestPresetByName(t *testing.T) {
	for _, want := range []string{"million-qps", "hour-long"} {
		p, ok := PresetByName(want)
		if !ok || p.Name != want {
			t.Errorf("PresetByName(%q) = %+v, %v", want, p, ok)
		}
		if len(p.Rates) == 0 || p.Runs < 1 || p.TargetSamples < 1 {
			t.Errorf("preset %s under-specified: %+v", want, p)
		}
	}
	if _, ok := PresetByName("terabit-qps"); ok {
		t.Error("unknown preset resolved")
	}
	if u := PresetUsage(); !strings.Contains(u, "million-qps") || !strings.Contains(u, "hour-long") {
		t.Errorf("usage text incomplete:\n%s", u)
	}
}

// TestRunPresetSmoke runs both presets at smoke scale — the shape CI
// exercises per commit — and pins determinism: the same options render
// byte-identical reports on repeat runs (and, by the shared fan-out
// machinery, for any worker count).
func TestRunPresetSmoke(t *testing.T) {
	for _, name := range []string{"million-qps", "hour-long"} {
		p, ok := PresetByName(name)
		if !ok {
			t.Fatalf("preset %s missing", name)
		}
		render := func(workers int) string {
			pr, err := RunPreset(p, SweepOptions{Runs: 1, Seed: 3, TargetSamples: 500, Workers: workers})
			if err != nil {
				t.Fatalf("preset %s: %v", name, err)
			}
			return pr.Render()
		}
		seq := render(1)
		if !strings.Contains(seq, name) {
			t.Errorf("preset %s render missing header:\n%s", name, seq)
		}
		for _, rate := range p.Rates {
			if !strings.Contains(seq, FormatRate(rate)) {
				t.Errorf("preset %s render missing rate %s:\n%s", name, FormatRate(rate), seq)
			}
		}
		if par := render(4); par != seq {
			t.Errorf("preset %s output differs between 1 and 4 workers:\n--- seq\n%s\n--- par\n%s", name, seq, par)
		}
	}
}

// TestPresetFullSizeSelectsStreaming pins that the full-size sample
// targets put every preset in the streaming regime: the whole point of
// the presets is scale that exact retention cannot afford.
func TestPresetFullSizeSelectsStreaming(t *testing.T) {
	for _, p := range Presets() {
		sc := PresetScenario(p, p.Rates[0], SweepOptions{})
		if got := sc.EffectiveSampleMode(); got != metrics.SampleStreaming {
			t.Errorf("preset %s full-size sample mode = %v, want streaming", p.Name, got)
		}
	}
}

// TestPresetScenarioLabels pins the label of every built-in preset's
// scenario and of every example spec's. The label names each run's
// random stream, so a label that moved would move every number the
// preset prints. It also checks that each preset leaves the per-point
// fields of its scenario zero, for PresetScenario and the caller to set.
func TestPresetScenarioLabels(t *testing.T) {
	check := func(p Preset, label string) {
		t.Helper()
		if got := PresetScenario(p, p.Rates[0], SweepOptions{}).Label; got != label {
			t.Errorf("preset %s: label %q, want %q", p.Name, got, label)
		}
		sc := p.Scenario
		if sc.Label != "" || sc.RateQPS != 0 || sc.Seed != 0 || sc.SampleMode != metrics.SampleAuto ||
			sc.Point != core.InApp || sc.Workers != 0 || sc.StreamingThreshold != 0 {
			t.Errorf("preset %s sets a per-point field: %+v", p.Name, sc)
		}
	}
	builtins := []struct{ name, label string }{
		{"million-qps", "HP-million-qps"},
		{"cluster", "HP-cluster"},
		{"sharded", "HP-sharded"},
		{"faulty-cluster", "HP-faulty-cluster"},
		{"hour-long", "HP-hour-long"},
	}
	presets := Presets()
	if len(presets) != len(builtins) {
		t.Fatalf("%d built-in presets, the table pins %d", len(presets), len(builtins))
	}
	for i, p := range presets {
		want := builtins[i]
		if p.Name != want.name {
			t.Fatalf("preset %d is %s, want %s", i, p.Name, want.name)
		}
		check(p, want.label)
	}

	examples := []struct{ file, label string }{
		{"bursty-gamma.yaml", "HP-bursty-gamma"},
		{"cluster.yaml", "HP-cluster"},
		{"diurnal.yaml", "HP-diurnal"},
		{"faulty-cluster.yaml", "HP-faulty-cluster"},
		{"hour-long.yaml", "HP-hour-long"},
		{"million-qps.yaml", "HP-million-qps"},
		{"onoff-sessions.yaml", "HP-onoff-sessions"},
		{"phases-spike.yaml", "HP-phases-spike"},
		{"sharded.yaml", "HP-sharded"},
		{"straggler.yaml", "HP-straggler"},
		{"weibull-heavy.yaml", "HP-weibull-heavy"},
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(examples) {
		t.Fatalf("%d example specs, the table pins %d", len(files), len(examples))
	}
	for i, file := range files {
		want := examples[i]
		if filepath.Base(file) != want.file {
			t.Fatalf("example %d is %s, want %s", i, filepath.Base(file), want.file)
		}
		check(PresetFromSpec(loadExampleSpec(t, want.file)), want.label)
	}
}
