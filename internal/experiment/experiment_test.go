package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/workload"
)

func runQuick(t *testing.T, s Scenario) Result {
	t.Helper()
	if s.Runs == 0 {
		s.Runs = 3
	}
	if s.TargetSamples == 0 {
		s.TargetSamples = 2000
	}
	if s.Label == "" {
		s.Label = "test"
	}
	if s.Client.Name == "" {
		s.Client = hw.HPConfig()
	}
	if s.Server.Name == "" {
		s.Server = hw.ServerBaselineConfig()
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScenarioValidation is the table of scenario fields outside the
// rate: each rejection names the field and its value. Only Validate
// sees these values; a hiccup rate above MaxRateQPS would queue hiccups
// at t = 0 until memory ran out.
func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name    string
		s       Scenario
		wantErr string // "" = accepted
	}{
		{"bogus-service", Scenario{Service: "bogus", RateQPS: 1, Runs: 1}, `unknown service "bogus"`},
		{"zero-rate", Scenario{Service: ServiceMemcached, RateQPS: 0, Runs: 1}, "got 0"},
		{"zero-runs", Scenario{Service: ServiceMemcached, RateQPS: 1, Runs: 0}, "need ≥1 run, got 0"},
		{"hiccup-nan", Scenario{Service: ServiceMemcached, RateQPS: 50_000, Runs: 1, HiccupRate: math.NaN()},
			"hiccup rate must be non-negative, finite and at most 1e+09 per second, got NaN"},
		{"hiccup-above-max", Scenario{Service: ServiceMemcached, RateQPS: 50_000, Runs: 1, HiccupRate: math.Nextafter(MaxRateQPS, math.Inf(1))},
			"hiccup rate must be non-negative, finite and at most 1e+09 per second, got 1.0000000000000001e+09"},
		{"hiccup-at-max", Scenario{Service: ServiceMemcached, RateQPS: 50_000, Runs: 1, HiccupRate: MaxRateQPS}, ""},
		{"negative-delay", Scenario{Service: ServiceSynthetic, RateQPS: 5000, Runs: 1, SynthDelay: -5 * time.Microsecond},
			"negative synthetic delay -5µs"},
		{"delay-on-memcached", Scenario{Service: ServiceMemcached, RateQPS: 5000, Runs: 1, SynthDelay: 100 * time.Microsecond},
			"synthetic delay 100µs set on the memcached service"},
		{"synthetic-delay", Scenario{Service: ServiceSynthetic, RateQPS: 5000, Runs: 1, SynthDelay: 100 * time.Microsecond}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("%v, want accepted", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestScenarioValidateRate is the rate table: a rate must be a finite
// positive number, at most MaxRateQPS, whose run fits in a
// time.Duration and whose measurement window expects at least one
// request per client thread. Each rejection names the rate. Only
// Validate sees these rates; a rejected one would run with a negative
// duration, schedule a thread's first send past the run, or schedule
// requests at one instant until memory ran out.
func TestScenarioValidateRate(t *testing.T) {
	cases := []struct {
		name     string
		rate     float64
		samples  int
		duration time.Duration
		wantErr  string // "" = accepted
	}{
		{"nan", math.NaN(), 200, 0, "got NaN"},
		{"plus-inf", math.Inf(1), 200, 0, "got +Inf"},
		{"minus-inf", math.Inf(-1), 200, 0, "got -Inf"},
		{"zero", 0, 200, 0, "got 0"},
		{"negative", -5, 200, 0, "got -5"},
		{"tiny", 1e-300, 200, 0, "rate 1e-300 QPS makes a 200-sample run longer than"},
		{"run-just-too-long", 1e-8, 1000, 0, "rate 1e-08 QPS makes a 1000-sample run longer than"},
		{"slow-but-fits", 1e-6, 1000, 0, ""},
		{"duration-too-long", 1000, 0, time.Duration(math.MaxInt64 / 10 * 9.5), "duration"},
		{"tiny-with-duration", 1e-300, 0, time.Second, "rate 1e-300 QPS expects 1e-300 requests in the 1s measurement window"},
		{"below-one-per-thread", 3, 0, time.Second, "rate 3 QPS expects 3 requests in the 1s measurement window, fewer than one for each of its 4 client threads"},
		{"one-per-thread", 4, 0, time.Second, ""},
		{"samples-below-threads", 1000, 3, 0, "rate 1000 QPS expects 3 requests in the 3ms measurement window"},
		{"samples-at-threads", 1000, 4, 0, ""},
		{"paper-lp", 200_000, 150_000, 0, ""},
		{"at-max", MaxRateQPS, 200, 0, ""},
		{"above-max", math.Nextafter(MaxRateQPS, math.Inf(1)), 200, 0, "got 1.0000000000000001e+09"},
		{"terabit", 1e12, 200, 0, "got 1e+12"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Scenario{Service: ServiceMemcached, RateQPS: tc.rate, Runs: 1, TargetSamples: tc.samples, Duration: tc.duration}
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rate %v: %v, want accepted", tc.rate, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("rate %v: %v, want error containing %q", tc.rate, err, tc.wantErr)
			}
		})
	}

	// The same window rule applies to the smallest share of the rate a
	// thread offers: its rarest class in its slowest phase. Memcached at
	// 100K QPS expects its default 20,000 requests over 4 threads.
	type (
		class = loadgen.ClassConfig
		phase = loadgen.PhaseConfig
	)
	mix := func(rare float64) []class {
		return []class{{Name: "a", Fraction: 1 - rare}, {Name: "b", Fraction: rare}}
	}
	shares := []struct {
		name    string
		classes []class
		phases  []phase
		wantErr string // "" = accepted
	}{
		{"tiny-fraction", []class{{Name: "a", Fraction: 1}, {Name: "b", Fraction: 1e-15}}, nil,
			`class "b" (fraction 1e-15) offers 1e-15 of rate 100000 QPS, 2e-11 requests in the 200ms measurement window, fewer than one for each of its 4 client threads`},
		{"tiny-rate-scale", nil, []phase{{Name: "p", Duration: time.Millisecond, RateScale: 1e-300}},
			`phase "p" (scale 1e-300) offers`},
		{"tiny-end-scale", nil, []phase{{Name: "p", Duration: time.Millisecond, RateScale: 1, EndScale: 1e-300}},
			`phase "p" (scale 1e-300) offers`},
		{"tiny-fraction-fast-phase", []class{{Name: "a", Fraction: 1}, {Name: "b", Fraction: 1e-15}},
			[]phase{{Name: "burst", Duration: time.Millisecond, RateScale: 3}},
			`experiment: class "b" (fraction 1e-15) offers`},
		{"rare-class-in-slow-phase", mix(0.25), []phase{{Name: "night", Duration: time.Millisecond, RateScale: 1, EndScale: 1.0 / 2048}},
			`class "b" (fraction 0.25) in phase "night" (scale 0.00048828125) offers 0.000122 of rate`},
		{"rare-class-in-slow-phase-fits", mix(0.25), []phase{{Name: "night", Duration: time.Millisecond, RateScale: 1, EndScale: 1.0 / 1024}}, ""},
		{"one-per-thread-class", mix(4.0 / 20_000), nil, ""},
		{"below-one-per-thread-class", mix(3.0 / 20_000), nil, `class "b" (fraction 0.00015) offers`},
		// A Weibull class's mean gap needs rate·Γ(1+1/k) finite at the
		// class's per-thread rate, 100K QPS ÷ 4 threads here. Γ(1+1/k) is
		// about 4.6e307 at k = 0.00587 and 2.8e299 at k = 0.006.
		{"weibull-overflows-at-thread-rate", []class{{Name: "w", Fraction: 1, Arrival: workload.ArrivalConfig{Process: workload.ArrivalWeibull, Shape: 0.00587}}}, nil,
			`class "w" at its per-thread rate of 25000 QPS: workload: weibull arrivals at rate 25000 with shape 0.00587 overflow`},
		{"weibull-fits-at-thread-rate", []class{{Name: "w", Fraction: 1, Arrival: workload.ArrivalConfig{Process: workload.ArrivalWeibull, Shape: 0.006}}}, nil, ""},
	}
	for _, tc := range shares {
		t.Run(tc.name, func(t *testing.T) {
			s := Scenario{Service: ServiceMemcached, RateQPS: 100_000, Runs: 1, Classes: tc.classes, Phases: tc.phases}
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("%v, want accepted", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestMemcachedLatencyBand(t *testing.T) {
	res := runQuick(t, Scenario{Service: ServiceMemcached, RateQPS: 100_000, Seed: 1})
	avg := res.MedianAvgUs()
	if avg < 15 || avg > 120 {
		t.Errorf("memcached HP avg = %.1fµs, want tens of µs", avg)
	}
	if res.MedianP99Us() <= avg {
		t.Error("p99 not above avg")
	}
	if len(res.PerRunAvgUs) != 3 {
		t.Errorf("runs = %d, want 3", len(res.PerRunAvgUs))
	}
}

func TestHDSearchLatencyBand(t *testing.T) {
	res := runQuick(t, Scenario{Service: ServiceHDSearch, RateQPS: 1000, TargetSamples: 800, Seed: 2})
	avg := res.MedianAvgUs()
	// The paper's HDSearch runs at several hundred µs to ~2 ms.
	if avg < 300 || avg > 3000 {
		t.Errorf("hdsearch avg = %.1fµs, want ≈400–2000µs", avg)
	}
}

func TestSocialNetLatencyBand(t *testing.T) {
	res := runQuick(t, Scenario{Service: ServiceSocialNet, RateQPS: 300, TargetSamples: 400, Seed: 3})
	avg := res.MedianAvgUs()
	// The paper's Social Network averages ≈2–4 ms.
	if avg < 1500 || avg > 6000 {
		t.Errorf("socialnet avg = %.1fµs, want ≈2000–4000µs", avg)
	}
}

func TestSyntheticDelayShiftsLatency(t *testing.T) {
	base := runQuick(t, Scenario{Service: ServiceSynthetic, RateQPS: 5000, TargetSamples: 1500, Seed: 4})
	delayed := runQuick(t, Scenario{Service: ServiceSynthetic, RateQPS: 5000, TargetSamples: 1500, Seed: 4,
		SynthDelay: 200 * time.Microsecond})
	diff := delayed.MedianAvgUs() - base.MedianAvgUs()
	// At low QPS with no queueing, latency grows linearly with the added
	// delay — the paper's validity check for the synthetic service (§V-B).
	if diff < 180 || diff > 260 {
		t.Errorf("added 200µs delay moved avg by %.1fµs, want ≈200µs", diff)
	}
}

func TestDeterministicResults(t *testing.T) {
	s := Scenario{Service: ServiceSynthetic, RateQPS: 5000, TargetSamples: 800, Seed: 42, Runs: 2,
		Label: "det", Client: hw.HPConfig(), Server: hw.ServerBaselineConfig()}
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerRunAvgUs {
		if a.PerRunAvgUs[i] != b.PerRunAvgUs[i] {
			t.Fatalf("run %d: %v != %v (not reproducible)", i, a.PerRunAvgUs[i], b.PerRunAvgUs[i])
		}
	}
}

func TestRunsAreIndependentButDiffer(t *testing.T) {
	res := runQuick(t, Scenario{Service: ServiceMemcached, RateQPS: 100_000, Seed: 5, Runs: 4})
	seen := map[float64]bool{}
	for _, v := range res.PerRunAvgUs {
		seen[v] = true
	}
	if len(seen) < 4 {
		t.Errorf("per-run averages collided: %v", res.PerRunAvgUs)
	}
}

func TestLPAboveHPForMemcached(t *testing.T) {
	lp := runQuick(t, Scenario{Service: ServiceMemcached, RateQPS: 100_000, Seed: 6, Client: hw.LPConfig(), Label: "LP"})
	hp := runQuick(t, Scenario{Service: ServiceMemcached, RateQPS: 100_000, Seed: 6, Client: hw.HPConfig(), Label: "HP"})
	if lp.MedianAvgUs() <= hp.MedianAvgUs() {
		t.Errorf("LP avg %.1f not above HP avg %.1f (Finding 1)", lp.MedianAvgUs(), hp.MedianAvgUs())
	}
	if lp.MedianP99Us() <= hp.MedianP99Us() {
		t.Errorf("LP p99 %.1f not above HP p99 %.1f (Finding 1)", lp.MedianP99Us(), hp.MedianP99Us())
	}
}

func TestSweepHelpers(t *testing.T) {
	if len(MemcachedRates()) != 7 {
		t.Error("memcached sweep should have 7 load points (paper)")
	}
	if len(HDSearchRates()) != 5 || len(SocialNetRates()) != 6 {
		t.Error("sweep sizes wrong")
	}
	if len(SyntheticDelays()) != 5 || len(SyntheticRates()) != 4 {
		t.Error("synthetic sweep sizes wrong")
	}
	if len(SMTVariants()) != 2 || len(C1EVariants()) != 2 {
		t.Error("variant helpers wrong")
	}
	if !C1EVariants()[1].Cfg.SMT == false && C1EVariants()[1].Cfg.MaxCState != "C1E" {
		t.Error("C1E variant misconfigured")
	}
	cc := hw.Clients()
	if cc[0].Governor != hw.GovernorPowersave || cc[1].Governor != hw.GovernorPerformance {
		t.Error("client configs wrong")
	}
}
