package workload

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

// drawGaps collects n inter-arrival gaps in seconds.
func drawGaps(t *testing.T, src Interarrival, n int) []float64 {
	t.Helper()
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = src.Next().Seconds()
	}
	return gaps
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// TestArrivalProcessMeanRates checks every process averages its nominal
// rate: the property that lets a spec swap the process without changing
// the offered load.
func TestArrivalProcessMeanRates(t *testing.T) {
	const rate = 1000.0
	cases := []struct {
		name string
		cfg  ArrivalConfig
	}{
		{"poisson", ArrivalConfig{}},
		{"fixed", ArrivalConfig{Process: ArrivalFixed}},
		{"gamma-bursty", ArrivalConfig{Process: ArrivalGamma, CV: 3}},
		{"gamma-regular", ArrivalConfig{Process: ArrivalGamma, CV: 0.5}},
		{"weibull-heavy", ArrivalConfig{Process: ArrivalWeibull, Shape: 0.6}},
		{"weibull-regular", ArrivalConfig{Process: ArrivalWeibull, Shape: 2}},
		{"onoff", ArrivalConfig{Process: ArrivalOnOff, OnMean: 100 * time.Millisecond, OffMean: 300 * time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := tc.cfg.New(rate, rng.NewLabeled(7, tc.name))
			if err != nil {
				t.Fatal(err)
			}
			// ON/OFF averages over session cycles, not individual gaps,
			// so it needs far more draws for the rate to settle.
			n := 200_000
			if tc.cfg.Process == ArrivalOnOff {
				n = 1_500_000
			}
			gaps := drawGaps(t, src, n)
			mean, _ := meanStd(gaps)
			if got := 1 / mean; math.Abs(got-rate)/rate > 0.05 {
				t.Errorf("empirical rate %.1f, want %.1f ±5%%", got, rate)
			}
			if src.Rate() != rate {
				t.Errorf("Rate() = %v, want %v", src.Rate(), rate)
			}
		})
	}
}

// TestGammaArrivalsCV pins the burstiness knob: the empirical
// coefficient of variation of the gaps tracks the configured cv.
func TestGammaArrivalsCV(t *testing.T) {
	for _, cv := range []float64{0.5, 1, 2, 4} {
		src, err := NewGammaArrivals(500, cv, rng.NewLabeled(11, "gamma-cv"))
		if err != nil {
			t.Fatal(err)
		}
		gaps := drawGaps(t, src, 100_000)
		mean, std := meanStd(gaps)
		if got := std / mean; math.Abs(got-cv)/cv > 0.08 {
			t.Errorf("cv=%v: empirical CV %.3f, want within 8%%", cv, got)
		}
	}
}

// TestOnOffArrivalsBurstier checks that session arrivals are burstier
// than Poisson at the same average rate: the gap CV must exceed 1 by a
// clear margin.
func TestOnOffArrivalsBurstier(t *testing.T) {
	src, err := NewOnOffArrivals(1000, 50*time.Millisecond, 450*time.Millisecond, rng.NewLabeled(13, "onoff"))
	if err != nil {
		t.Fatal(err)
	}
	gaps := drawGaps(t, src, 200_000)
	mean, std := meanStd(gaps)
	if cv := std / mean; cv < 1.5 {
		t.Errorf("ON/OFF gap CV %.2f, want clearly burstier than Poisson (>1.5)", cv)
	}
}

// TestWeibullArrivalsShape checks the tail ordering: a sub-1 shape has a
// larger gap CV than Poisson (cv 1), a super-1 shape a smaller one.
func TestWeibullArrivalsShape(t *testing.T) {
	cvOf := func(shape float64) float64 {
		src, err := NewWeibullArrivals(500, shape, rng.NewLabeled(17, "weibull-shape"))
		if err != nil {
			t.Fatal(err)
		}
		gaps := drawGaps(t, src, 100_000)
		mean, std := meanStd(gaps)
		return std / mean
	}
	if heavy := cvOf(0.5); heavy < 1.5 {
		t.Errorf("shape 0.5 CV %.2f, want heavy-tailed (>1.5)", heavy)
	}
	if regular := cvOf(3); regular > 0.5 {
		t.Errorf("shape 3 CV %.2f, want near-regular (<0.5)", regular)
	}
}

// TestArrivalConfigDeterministic pins that equal configs on equal
// streams replay identical gap sequences — the labeled-stream property
// every determinism guarantee above this layer depends on.
func TestArrivalConfigDeterministic(t *testing.T) {
	cfg := ArrivalConfig{Process: ArrivalOnOff, OnMean: 20 * time.Millisecond, OffMean: 80 * time.Millisecond}
	a, err := cfg.New(2000, rng.NewLabeled(3, "det"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.New(2000, rng.NewLabeled(3, "det"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if ga, gb := a.Next(), b.Next(); ga != gb {
			t.Fatalf("draw %d: %v != %v", i, ga, gb)
		}
	}
}

// TestArrivalConfigValidate covers the spec-hardening table: parameter
// domains that would produce NaN gaps or a generator that never fires
// must be rejected with descriptive errors.
func TestArrivalConfigValidate(t *testing.T) {
	bad := []ArrivalConfig{
		{Process: "bogus"},
		{Process: ArrivalGamma},                                   // cv unset
		{Process: ArrivalGamma, CV: -1},                           // cv negative
		{Process: ArrivalGamma, CV: math.NaN()},                   // cv NaN
		{Process: ArrivalWeibull},                                 // shape unset
		{Process: ArrivalWeibull, Shape: -0.5},                    // shape negative
		{Process: ArrivalWeibull, Shape: math.Inf(1)},             // shape inf
		{Process: ArrivalWeibull, Shape: 0.001},                   // Γ(1+1/shape) overflows
		{Process: ArrivalOnOff},                                   // means unset
		{Process: ArrivalOnOff, OnMean: time.Second},              // off unset
		{Process: ArrivalOnOff, OnMean: -time.Second, OffMean: 1}, // on negative
		{Process: ArrivalOnOff, OnMean: time.Second, OffMean: -1}, // off negative
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v: validated, want error", cfg)
		}
		if _, err := cfg.New(100, rng.New(1)); err == nil {
			t.Errorf("%+v: New succeeded, want error", cfg)
		}
	}
	// A shape just above the overflow validates, but at a rate where
	// rate·Γ(1+1/shape) overflows the mean gap's scale would be 0: New
	// rejects it rather than build a source whose first gap panics.
	near := ArrivalConfig{Process: ArrivalWeibull, Shape: 0.00587}
	if err := near.Validate(); err != nil {
		t.Errorf("%+v: %v, want valid", near, err)
	}
	if _, err := near.New(1000, rng.New(1)); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("%+v at 1000 QPS: New returned %v, want an overflow error", near, err)
	}
	// Zero and negative rates are rejected for every process.
	for _, cfg := range []ArrivalConfig{{}, {Process: ArrivalGamma, CV: 2}, {Process: ArrivalWeibull, Shape: 0.7}, {Process: ArrivalOnOff, OnMean: time.Second, OffMean: time.Second}} {
		for _, rate := range []float64{0, -10} {
			if _, err := cfg.New(rate, rng.New(1)); err == nil {
				t.Errorf("%+v rate=%v: New succeeded, want error", cfg, rate)
			}
		}
	}
}

// TestGammaWeibullSamplerMoments sanity-checks the new rng samplers the
// arrival processes are built on.
func TestGammaWeibullSamplerMoments(t *testing.T) {
	s := rng.NewLabeled(23, "moments")
	const n = 200_000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Gamma(0.5, 2)
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Errorf("Gamma(0.5,2) mean %.3f, want ≈1", mean)
	}
	sum = 0
	for i := 0; i < n; i++ {
		sum += s.Weibull(2, 1)
	}
	want := math.Gamma(1.5) // ≈0.8862
	if mean := sum / n; math.Abs(mean-want) > 0.02 {
		t.Errorf("Weibull(2,1) mean %.4f, want ≈%.4f", mean, want)
	}
}
