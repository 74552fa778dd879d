package figures

import (
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"a", "bb"}, Notes: []string{"n1"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.Render()
	for _, want := range []string{"T\n", "a", "bb", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Headers: []string{"x", "y"}}
	tb.AddRow("a,b", `say "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"a,b"`) {
		t.Errorf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %s", csv)
	}
	if !strings.HasPrefix(csv, "x,y\n") {
		t.Errorf("header row wrong: %s", csv)
	}
}

func TestChartRender(t *testing.T) {
	ch := &Chart{
		Title:   "latency",
		XLabels: []string{"10K", "50K", "100K"},
		XLabel:  "QPS",
		YLabel:  "µs",
		Series: []Series{
			{Name: "LP", Points: []float64{50, 60, 90}},
			{Name: "HP", Points: []float64{25, 26, 30}},
		},
	}
	out := ch.Render()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("chart missing series marks:\n%s", out)
	}
	if !strings.Contains(out, "LP") || !strings.Contains(out, "HP") {
		t.Error("chart missing legend")
	}
	if !strings.Contains(out, "10K") {
		t.Error("chart missing x labels")
	}
}

func TestChartEmpty(t *testing.T) {
	ch := &Chart{Title: "empty"}
	if out := ch.Render(); !strings.Contains(out, "no data") {
		t.Errorf("empty chart rendered: %s", out)
	}
}

func TestFormatRate(t *testing.T) {
	if FormatRate(10000) != "10K" {
		t.Errorf("FormatRate(10000) = %s", FormatRate(10000))
	}
	if FormatRate(500) != "500" {
		t.Errorf("FormatRate(500) = %s", FormatRate(500))
	}
	if FormatRate(2500) != "2.5K" {
		t.Errorf("FormatRate(2500) = %s", FormatRate(2500))
	}
}

func TestStaticTables(t *testing.T) {
	t1 := TableI().Render()
	for _, want := range []string{"Client only", "0", "Server only", "8", "Total", "20"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	t2 := TableII().Render()
	for _, want := range []string{"intel_pstate", "acpi-cpufreq", "powersave", "performance", "idle=poll", "dynamic", "fixed"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
	t3 := TableIII().Render()
	if !strings.Contains(t3, "wrong-conclusions") {
		t.Error("Table III missing the risk flag")
	}
	if strings.Count(t3, "low") < 3 {
		t.Error("Table III should have three low-risk rows")
	}
}

// tinyOpts runs minimal sweeps so figure rendering is exercised end-to-end.
func tinyOpts() SweepOptions {
	return SweepOptions{Runs: 2, Seed: 11, TargetSamples: 400}
}

func tinySweep(t *testing.T) *Sweep {
	t.Helper()
	sw, err := RunServiceSweep(experiment.ServiceMemcached,
		[]experiment.ServerVariant{
			experiment.SMTVariants()[0],
			experiment.SMTVariants()[1],
			experiment.C1EVariants()[1],
		},
		[]float64{50_000, 200_000}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestFig2And3Render(t *testing.T) {
	sw := tinySweep(t)
	f2 := Fig2(sw)
	for _, want := range []string{"Figure 2", "LP-SMToff", "HP-SMTon", "(a)", "(b)", "(c)", "(d)", "CI overlap"} {
		if !strings.Contains(f2, want) {
			t.Errorf("Fig2 missing %q", want)
		}
	}
	f3 := Fig3(sw)
	for _, want := range []string{"Figure 3", "C1E_ON / C1E_OFF"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Fig3 missing %q", want)
		}
	}
}

func TestFig8Fig9TableIVRender(t *testing.T) {
	// Needs ≥3 runs for Shapiro–Wilk and ≥10 for CONFIRM floor behaviour;
	// use 12 runs on a tiny sample size.
	sw, err := RunServiceSweep(experiment.ServiceMemcached,
		[]experiment.ServerVariant{
			experiment.SMTVariants()[0],
			experiment.SMTVariants()[1],
			experiment.C1EVariants()[1],
		},
		[]float64{100_000}, SweepOptions{Runs: 12, Seed: 12, TargetSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	f8 := Fig8(sw)
	if !strings.Contains(f8, "LP-C1Eon") || !strings.Contains(f8, "consistent with normality") {
		t.Errorf("Fig8 incomplete:\n%s", f8)
	}
	f9, err := Fig9(sw, "HP", "SMToff", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f9, "median") {
		t.Errorf("Fig9 missing median marker:\n%s", f9)
	}
	t4 := TableIV(sw, 12).Render()
	for _, want := range []string{"Parametric", "CONFIRM", "Shapiro–Wilk", "HP-SMTon"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table IV missing %q", want)
		}
	}
}

func TestSweepProgressCallback(t *testing.T) {
	var lines []string
	opts := tinyOpts()
	opts.Progress = func(l string) { lines = append(lines, l) }
	_, err := RunServiceSweep(experiment.ServiceMemcached,
		experiment.SMTVariants()[:1], []float64{50_000}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 { // LP + HP
		t.Errorf("progress lines = %d, want 2", len(lines))
	}
}

// TestSweepAppliesResilienceOptions checks that a figure grid honours the
// Timeout and Retries options as presets do: SocialNet's ≈2.5 ms mean
// latency is far past a 1 ms timeout, so every run must carry resilience
// metrics with timeouts counted.
func TestSweepAppliesResilienceOptions(t *testing.T) {
	opts := tinyOpts()
	opts.Timeout = time.Millisecond
	opts.Retries = 2
	sw, err := RunServiceSweep(experiment.ServiceSocialNet,
		experiment.SMTVariants()[:1], []float64{300}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range sw.Clients {
		for i, run := range sw.Get(cl, sw.Variants[0], 0).Runs {
			if run.Resilience == nil {
				t.Errorf("%s run %d: no resilience metrics under a %v timeout", cl, i, opts.Timeout)
			} else if run.Resilience.Stats.Timeouts == 0 {
				t.Errorf("%s run %d: no timeouts under a %v timeout", cl, i, opts.Timeout)
			}
		}
	}
}

func TestSyntheticSweepAndFig7(t *testing.T) {
	// Shrink the grid via options; full grid is exercised by cmd/repro.
	sw := &SyntheticSweep{}
	var err error
	sw, err = RunSyntheticStudy(SweepOptions{Runs: 2, Seed: 13, TargetSamples: 200})
	if err != nil {
		t.Fatal(err)
	}
	out := Fig7(sw)
	for _, want := range []string{"Figure 7", "(a)", "(f)", "LP / HP"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig7 missing %q", want)
		}
	}
}
