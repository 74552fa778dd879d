package metrics

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// heavyTailed draws an ETC-like latency mixture: a lognormal body with a
// Pareto tail, the shape that defeats naive fixed-width histograms.
func heavyTailed(stream *rng.Stream) float64 {
	if stream.Float64() < 0.95 {
		return stream.LogNormal(3.5, 0.6)
	}
	return stream.Pareto(1.8, 80)
}

func TestExactMatchesSummarize(t *testing.T) {
	// Expecting fewer samples than arrive exercises the append fallback.
	for _, expected := range []int{0, 3_000, 5_000} {
		stream := rng.New(1)
		e := NewExact(expected)
		var xs []float64
		for i := 0; i < 5_000; i++ {
			v := heavyTailed(stream)
			e.Record(v)
			xs = append(xs, v)
		}
		if !reflect.DeepEqual(e.Summary(), stats.Summarize(xs)) {
			t.Errorf("expected=%d: Exact summary differs from stats.Summarize — exact-mode byte-identity broken", expected)
		}
		if !reflect.DeepEqual(e.Samples(), xs) {
			t.Errorf("expected=%d: exact samples are not the recorded sequence", expected)
		}
	}
}

func TestNewExactSizesForExpectedCount(t *testing.T) {
	// 4·√10000 = 400 samples of slack.
	e := NewExact(10_000)
	if got := cap(e.Samples()); got != 10_400 {
		t.Fatalf("cap = %d, want 10400", got)
	}
	for i := 0; i < 10_400; i++ {
		e.Record(float64(i))
	}
	if got := cap(e.Samples()); got != 10_400 {
		t.Errorf("recording within the slack regrew the buffer to cap %d", got)
	}
	if got := cap(NewExact(0).Samples()); got != 0 {
		t.Errorf("NewExact(0) cap = %d, want 0", got)
	}
}

// TestStreamingWithinBound is the sketch-vs-exact tolerance test the
// streaming mode's documentation promises: on heavy-tailed data, P50 and
// P99 must land within the documented relative error bound of the exact
// order statistics, and the moments must agree to floating-point noise.
func TestStreamingWithinBound(t *testing.T) {
	const n = 200_000
	s, err := NewStreaming(StreamingConfig{}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	e := NewExact(n)
	stream := rng.New(7)
	for i := 0; i < n; i++ {
		v := heavyTailed(stream)
		s.Record(v)
		e.Record(v)
	}
	exact := e.Summary()
	got := s.Summary()

	if got.N != exact.N {
		t.Fatalf("N = %d, want %d", got.N, exact.N)
	}
	if relErr := math.Abs(got.Mean-exact.Mean) / exact.Mean; relErr > 1e-9 {
		t.Errorf("mean rel err %.2e (Welford should be exact)", relErr)
	}
	if relErr := math.Abs(got.StdDev-exact.StdDev) / exact.StdDev; relErr > 1e-6 {
		t.Errorf("stddev rel err %.2e", relErr)
	}
	if got.Min != exact.Min || got.Max != exact.Max {
		t.Errorf("min/max = %v/%v, want %v/%v", got.Min, got.Max, exact.Min, exact.Max)
	}

	// The sketch bound α is against floor-rank order statistics; the
	// exact summary interpolates between ranks. At n=200k adjacent order
	// statistics are within noise of each other, so α plus a little
	// slack covers both conventions.
	alpha := s.RelativeAccuracy()
	tol := alpha + 2e-3
	for _, q := range []struct {
		name       string
		got, exact float64
	}{
		{"P50", got.Median, exact.Median},
		{"P90", got.P90, exact.P90},
		{"P95", got.P95, exact.P95},
		{"P99", got.P99, exact.P99},
	} {
		if relErr := math.Abs(q.got-q.exact) / q.exact; relErr > tol {
			t.Errorf("%s = %v, exact %v (rel err %.4f > %.4f)", q.name, q.got, q.exact, relErr, tol)
		}
	}
}

func TestStreamingDeterministic(t *testing.T) {
	run := func() stats.Summary {
		s, err := NewStreaming(StreamingConfig{}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		stream := rng.New(9)
		for i := 0; i < 20_000; i++ {
			s.Record(heavyTailed(stream))
		}
		return s.Summary()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical streaming runs differ: %+v vs %+v", a, b)
	}
}

func TestReservoirDeterministicAndUniform(t *testing.T) {
	const k, n = 256, 50_000
	fill := func(seed uint64) []float64 {
		r := NewReservoir(k, rng.New(seed))
		for i := 0; i < n; i++ {
			r.Offer(float64(i))
		}
		if r.Seen() != n {
			t.Fatalf("seen %d, want %d", r.Seen(), n)
		}
		return append([]float64(nil), r.Samples()...)
	}
	a, b := fill(13), fill(13)
	if !reflect.DeepEqual(a, b) {
		t.Error("reservoir content differs across identical streams")
	}
	if len(a) != k {
		t.Fatalf("reservoir holds %d, want %d", len(a), k)
	}
	// Uniformity sanity: the retained mean of 0..n−1 is near (n−1)/2.
	if m := stats.Mean(a); math.Abs(m-float64(n-1)/2) > float64(n)/10 {
		t.Errorf("reservoir mean %v far from %v — not a uniform subsample", m, float64(n-1)/2)
	}
	if c := fill(14); reflect.DeepEqual(a, c) {
		t.Error("different streams picked identical reservoirs (suspicious)")
	}
}

func TestStreamingSamplesBounded(t *testing.T) {
	s, err := NewStreaming(StreamingConfig{ReservoirSize: 64}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		s.Record(float64(i))
	}
	if got := len(s.Samples()); got != 64 {
		t.Errorf("retained %d samples, want 64", got)
	}
	// Reservoir disabled: no retained samples, no stream needed.
	s2, err := NewStreaming(StreamingConfig{ReservoirSize: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.Record(1)
	if s2.Samples() != nil {
		t.Error("disabled reservoir retained samples")
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"auto": SampleAuto, "": SampleAuto, "exact": SampleExact, "streaming": SampleStreaming} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
	if SampleStreaming.String() != "streaming" || SampleAuto.String() != "auto" || SampleExact.String() != "exact" {
		t.Error("Mode.String mismatch with flag spelling")
	}
}

func TestExactFactoryLeavesStreamUntouched(t *testing.T) {
	// The exact factory must not consume the run stream: exact-mode
	// simulations have to stay byte-identical to the historical path.
	a, b := rng.New(21), rng.New(21)
	if _, _, err := ExactFactory(a, 1000); err != nil {
		t.Fatal(err)
	}
	if a.Uint64() != b.Uint64() {
		t.Error("ExactFactory consumed the run stream")
	}
}

// BenchmarkRecorderMemoryPerSample pins the O(1) claim at the recorder
// level: streaming allocations per recorded sample must amortize to
// (near) zero, while exact grows its retained slice.
func BenchmarkRecorderMemoryPerSample(b *testing.B) {
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		e := NewExact(0)
		stream := rng.New(1)
		for i := 0; i < b.N; i++ {
			e.Record(heavyTailed(stream))
		}
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		s, err := NewStreaming(StreamingConfig{}, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		stream := rng.New(1)
		for i := 0; i < b.N; i++ {
			s.Record(heavyTailed(stream))
		}
	})
}

// TestStreamingMergeErrorBound pins the cross-run aggregation path: an
// aggregate built by merging per-run streaming recorders must report
// exact moments and α-bounded quantiles over the union of all runs'
// samples, with no per-run reservoirs retained.
func TestStreamingMergeErrorBound(t *testing.T) {
	const runs = 12
	agg, err := NewAggregate(0)
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for run := 0; run < runs; run++ {
		rec, err := NewStreaming(StreamingConfig{ReservoirSize: -1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		stream := rng.NewLabeled(77, "agg-run")
		for i := 0; i < 4_000; i++ {
			// Later runs are slower on average, as under a load ramp, so
			// the aggregate cannot be read off any single run.
			v := heavyTailed(stream) * (1 + 0.1*float64(run))
			rec.Record(v)
			all = append(all, v)
		}
		if err := agg.Merge(rec); err != nil {
			t.Fatal(err)
		}
	}

	sum := agg.Summary()
	exact := stats.Summarize(all)
	if sum.N != exact.N {
		t.Fatalf("merged N = %d, want %d", sum.N, exact.N)
	}
	if math.Abs(sum.Mean-exact.Mean) > 1e-9*exact.Mean {
		t.Errorf("merged mean %v, exact %v", sum.Mean, exact.Mean)
	}
	if math.Abs(sum.StdDev-exact.StdDev) > 1e-7*exact.StdDev {
		t.Errorf("merged stddev %v, exact %v", sum.StdDev, exact.StdDev)
	}
	if sum.Min != exact.Min || sum.Max != exact.Max {
		t.Errorf("merged min/max %v/%v, exact %v/%v", sum.Min, sum.Max, exact.Min, exact.Max)
	}
	alpha := agg.RelativeAccuracy()
	c := stats.Sorted(all)
	for _, q := range []struct {
		p   float64
		got float64
	}{{50, sum.Median}, {90, sum.P90}, {95, sum.P95}, {99, sum.P99}} {
		want := c[int(q.p/100*float64(len(c)-1))]
		if relErr := math.Abs(q.got-want) / want; relErr > alpha {
			t.Errorf("merged p%v: %v vs exact %v (rel err %.4f > α=%v)", q.p, q.got, want, relErr, alpha)
		}
	}

	// The aggregate kept no reservoir, and merging never invents one.
	if s := agg.Samples(); s != nil {
		t.Errorf("aggregate retained %d samples, want none", len(s))
	}

	// Mismatched accuracies must be rejected.
	other, err := NewStreaming(StreamingConfig{RelativeAccuracy: 0.05, ReservoirSize: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Merge(other); err == nil {
		t.Error("merge across different accuracies accepted")
	}
}

// TestStreamingMergeKeepsOwnReservoir pins that Merge leaves the
// receiver's reservoir untouched: Samples() keeps describing only
// directly recorded values.
func TestStreamingMergeKeepsOwnReservoir(t *testing.T) {
	rec, err := NewStreaming(StreamingConfig{ReservoirSize: 8}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		rec.Record(float64(i))
	}
	before := append([]float64(nil), rec.Samples()...)

	other, err := NewStreaming(StreamingConfig{ReservoirSize: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		other.Record(1e6)
	}
	if err := rec.Merge(other); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Samples(), before) {
		t.Errorf("merge disturbed the receiver's reservoir: %v vs %v", rec.Samples(), before)
	}
	if rec.N() != 108 {
		t.Errorf("merged N = %d, want 108", rec.N())
	}
}
