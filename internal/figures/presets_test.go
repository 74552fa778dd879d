package figures

import (
	"strings"
	"testing"

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
