package rng

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds produced %d identical draws", same)
	}
}

func TestLabeledStreamsIndependent(t *testing.T) {
	a := NewLabeled(7, "interarrival")
	b := NewLabeled(7, "service")
	if a.Uint64() == b.Uint64() {
		t.Error("labeled streams from the same seed are correlated")
	}
	// Same label, same seed must reproduce.
	c := NewLabeled(7, "interarrival")
	a2 := NewLabeled(7, "interarrival")
	if c.Uint64() != a2.Uint64() {
		t.Error("identical labels did not reproduce the stream")
	}
}

func TestSplitProducesIndependentStream(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	if parent.Uint64() == child.Uint64() {
		t.Error("split child mirrors parent")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := s.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) = %d out of range", v)
		}
		seen[v]++
	}
	for v := 0; v < 6; v++ {
		if seen[v] < 9000 || seen[v] > 11000 {
			t.Errorf("Intn(6) value %d appeared %d times out of 60000, want ≈10000", v, seen[v])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := New(6)
	const rate = 0.25 // mean 4
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-4) > 0.05 {
		t.Errorf("Exp mean = %v, want ≈4", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(7)
	const n = 200000
	const wantMean, wantSD = 10.0, 3.0
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(wantMean, wantSD)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-wantMean) > 0.05 {
		t.Errorf("Normal mean = %v, want ≈%v", mean, wantMean)
	}
	if math.Abs(sd-wantSD) > 0.05 {
		t.Errorf("Normal stddev = %v, want ≈%v", sd, wantSD)
	}
}

// sameFloat reports whether a and b are the same float64: the same bits,
// or both NaN, whose payload can depend on the operand order a compiled
// expression picks.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkFill compares fill, which fills a slice of n, with n successive
// draw calls on a twin stream: the variates, the stream state after them
// and the next draw. Both streams first make pre Normal(0, 1) calls, so
// an odd pre leaves a spare drawn at other parameters, which FillNormal
// and FillLogNormal must use first and FillExp must leave in place.
func checkFill(t *testing.T, what string, seed uint64, pre, n int, fill func(*Stream, []float64), draw func(*Stream) float64) {
	t.Helper()
	a, b := New(seed), New(seed)
	for range pre {
		a.Normal(0, 1)
		b.Normal(0, 1)
	}
	got := make([]float64, n)
	fill(a, got)
	what = fmt.Sprintf("seed %d, %d earlier normals, %s of %d", seed, pre, what, n)
	for i, g := range got {
		if w := draw(b); !sameFloat(g, w) {
			t.Fatalf("%s: dst[%d] = %v, one call at a time gave %v", what, i, g, w)
		}
	}
	// Normal leaves a dead value in spare once it has used it.
	if a.s != b.s || a.hasSpare != b.hasSpare || a.hasSpare && !sameFloat(a.spare, b.spare) {
		t.Fatalf("%s: state %v %v %v, calls one at a time leave %v %v %v",
			what, a.s, a.hasSpare, a.spare, b.s, b.hasSpare, b.spare)
	}
	if x, y := draw(a), draw(b); !sameFloat(x, y) {
		t.Fatalf("%s: next draw %v, want %v", what, x, y)
	}
}

func checkFillNormal(t *testing.T, seed uint64, pre, n int, mean, stddev float64) {
	t.Helper()
	checkFill(t, fmt.Sprintf("FillNormal at N(%v, %v)", mean, stddev), seed, pre, n,
		func(s *Stream, dst []float64) { s.FillNormal(dst, mean, stddev) },
		func(s *Stream) float64 { return s.Normal(mean, stddev) })
}

// TestFillNormalMatchesNormal checks FillNormal against Normal at every
// length from 0 to 70, across the 16-pair chunk edge at 32 and at odd
// lengths, with and without a spare carried in, at three mean and
// standard-deviation pairs.
func TestFillNormalMatchesNormal(t *testing.T) {
	for _, p := range [][2]float64{{0, 1}, {0, 0.15}, {-3.5, 7}} {
		for seed := uint64(1); seed <= 3; seed++ {
			for pre := 0; pre <= 2; pre++ {
				for n := 0; n <= 70; n++ {
					checkFillNormal(t, seed, pre, n, p[0], p[1])
				}
			}
		}
	}
}

// FuzzFillNormalMatchesNormal runs checkFillNormal at any seed, length up
// to 255 and mean and standard deviation, NaN and ±Inf included.
func FuzzFillNormalMatchesNormal(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(64), 0.0, 0.15)
	f.Add(uint64(2), uint8(1), uint8(33), -1e300, 1e300)
	f.Add(uint64(3), uint8(3), uint8(255), math.NaN(), math.Inf(-1))
	f.Fuzz(func(t *testing.T, seed uint64, pre, n uint8, mean, stddev float64) {
		checkFillNormal(t, seed, int(pre%4), int(n), mean, stddev)
	})
}

func TestFillNormalAllocFree(t *testing.T) {
	s, dst := New(1), make([]float64, 64)
	if allocs := testing.AllocsPerRun(100, func() { s.FillNormal(dst, 0, 0.15) }); allocs != 0 {
		t.Errorf("FillNormal allocates %.1f times per call, want 0", allocs)
	}
}

func checkFillExp(t *testing.T, seed uint64, pre, n int, rate float64) {
	t.Helper()
	checkFill(t, fmt.Sprintf("FillExp at rate %v", rate), seed, pre, n,
		func(s *Stream, dst []float64) { s.FillExp(dst, rate) },
		func(s *Stream) float64 { return s.Exp(rate) })
}

// TestFillExpMatchesExp checks FillExp against Exp at every length from
// 0 to 70, with and without a spare normal held by the stream, at four
// rates.
func TestFillExpMatchesExp(t *testing.T) {
	for _, rate := range []float64{1, 1e5, 0.37, 4e-9} {
		for seed := uint64(1); seed <= 3; seed++ {
			for pre := 0; pre <= 2; pre++ {
				for n := 0; n <= 70; n++ {
					checkFillExp(t, seed, pre, n, rate)
				}
			}
		}
	}
}

func checkFillLogNormal(t *testing.T, seed uint64, pre, n int, mu, sigma float64) {
	t.Helper()
	checkFill(t, fmt.Sprintf("FillLogNormal at (%v, %v)", mu, sigma), seed, pre, n,
		func(s *Stream, dst []float64) { s.FillLogNormal(dst, mu, sigma) },
		func(s *Stream) float64 { return s.LogNormal(mu, sigma) })
}

// TestFillLogNormalMatchesLogNormal checks FillLogNormal against
// LogNormal at every length from 0 to 70, across FillNormal's 16-pair
// chunk edge at 32 and at odd lengths, with and without a spare carried
// in, at the link jitter's, the tier noise's and two other parameter
// pairs.
func TestFillLogNormalMatchesLogNormal(t *testing.T) {
	for _, p := range [][2]float64{{0, 0.08}, {0, 0.6}, {1.5, 1}, {-2, 0.01}} {
		for seed := uint64(1); seed <= 3; seed++ {
			for pre := 0; pre <= 2; pre++ {
				for n := 0; n <= 70; n++ {
					checkFillLogNormal(t, seed, pre, n, p[0], p[1])
				}
			}
		}
	}
}

// FuzzFillExpLogNormalMatchScalar runs checkFillExp and
// checkFillLogNormal at any seed and length up to 255: FillExp at any
// positive rate, subnormal and +Inf included, and FillLogNormal at any
// mu and sigma, NaN and ±Inf included.
func FuzzFillExpLogNormalMatchScalar(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(32), 1e5, 0.0, 0.08)
	f.Add(uint64(2), uint8(1), uint8(33), 5e-324, 700.0, 1e300)
	f.Add(uint64(3), uint8(3), uint8(255), math.Inf(1), math.NaN(), math.Inf(-1))
	f.Fuzz(func(t *testing.T, seed uint64, pre, n uint8, rate, mu, sigma float64) {
		if rate > 0 { // FillExp, like Exp, panics on any other rate
			checkFillExp(t, seed, int(pre%4), int(n), rate)
		}
		checkFillLogNormal(t, seed, int(pre%4), int(n), mu, sigma)
	})
}

func TestFillExpLogNormalAllocFree(t *testing.T) {
	s, dst := New(1), make([]float64, 32)
	if allocs := testing.AllocsPerRun(100, func() { s.FillExp(dst, 1e5) }); allocs != 0 {
		t.Errorf("FillExp allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.FillLogNormal(dst, 0, 0.08) }); allocs != 0 {
		t.Errorf("FillLogNormal allocates %.1f times per call, want 0", allocs)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(8)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormal(2, 0.5)
	}
	// Median of lognormal(mu, sigma) is exp(mu).
	median := quickSelectMedian(vals)
	want := math.Exp(2)
	if math.Abs(median-want)/want > 0.02 {
		t.Errorf("LogNormal median = %v, want ≈%v", median, want)
	}
}

func quickSelectMedian(v []float64) float64 {
	// Sort a copy; the previous insertion sort was O(n²) and dominated
	// the package's test time at n ≈ 100k.
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[len(c)/2]
}

func TestParetoSupport(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Pareto(2, 5)
		if v < 5 {
			t.Fatalf("Pareto(2,5) = %v below scale", v)
		}
	}
}

func TestGeneralizedParetoZeroShapeIsExponential(t *testing.T) {
	s := New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.GeneralizedPareto(0, 2, 0)
	}
	mean := sum / n
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("GPD(0,2,0) mean = %v, want ≈2 (exponential)", mean)
	}
}

func TestGeneralizedParetoLocationShift(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		if v := s.GeneralizedPareto(100, 5, 0.1); v < 100 {
			t.Fatalf("GPD located at 100 produced %v", v)
		}
	}
}

func TestPoissonSmallMean(t *testing.T) {
	s := New(12)
	const n = 200000
	const mean = 3.5
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Poisson(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean) > 0.05 {
		t.Errorf("Poisson(%v) mean = %v", mean, got)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	s := New(13)
	const n = 100000
	const mean = 200.0
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Poisson(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean) > 1 {
		t.Errorf("Poisson(%v) mean = %v", mean, got)
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	s := New(14)
	if got := s.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := s.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d, want 0", got)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(15)
	z := NewZipf(1000, 1.0)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(s)]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Errorf("Zipf not rank-skewed: c0=%d c10=%d c500=%d", counts[0], counts[10], counts[500])
	}
	// Rank 0 should hold roughly 1/H(1000) ≈ 13% of draws.
	frac := float64(counts[0]) / n
	if frac < 0.10 || frac > 0.17 {
		t.Errorf("Zipf rank-0 fraction = %v, want ≈0.13", frac)
	}
}

func TestDiscreteRespectsWeights(t *testing.T) {
	s := New(16)
	weights := []float64{1, 0, 3}
	d := NewDiscrete(weights)
	if weights[0] != 1 || weights[1] != 0 || weights[2] != 3 {
		t.Fatalf("NewDiscrete modified its weights: %v", weights)
	}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[d.Draw(s)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight outcome drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.8 || ratio > 3.2 {
		t.Errorf("weight ratio = %v, want ≈3", ratio)
	}
}

func TestDiscretePanics(t *testing.T) {
	for _, weights := range [][]float64{nil, {0, 0}, {1, -1}} {
		func() {
			defer func() { recover() }()
			NewDiscrete(weights)
			t.Errorf("NewDiscrete(%v) did not panic", weights)
		}()
	}
}

// bisectCDF is the sampler the guide table replaced, kept as the
// reference it must match: the CDF accumulated term by term and
// normalised, searched by bisection for the first entry ≥ u.
type bisectCDF []float64

func newBisectCDF(weights []float64) bisectCDF {
	cdf := make(bisectCDF, len(weights))
	sum := 0.0
	for i, w := range weights {
		sum += w
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func (c bisectCDF) rank(u float64) int {
	lo, hi := 0, len(c)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func zipfWeights(n int, alpha float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), alpha)
	}
	return w
}

// TestDiscreteMatchesBisection pins the guide table's exactness: for
// NewZipf at the sizes the simulator builds and for NewDiscrete weight
// vectors with zero-weight outcomes at the ends and inside, the CDF is
// bit-identical to the reference's and every probe ranks the same. The
// probes are the places an off-by-one would show: each CDF value and its
// float64 neighbours, each guide-slice edge and the value just below it,
// 0, the largest Float64, and a long random run drawn through Draw.
func TestDiscreteMatchesBisection(t *testing.T) {
	type tableCase struct {
		name string
		d    *Discrete
		ref  bisectCDF
	}
	zipf := func(name string, n int, alpha float64) tableCase {
		return tableCase{name, NewZipf(n, alpha), newBisectCDF(zipfWeights(n, alpha))}
	}
	weights := func(name string, w ...float64) tableCase {
		return tableCase{name, NewDiscrete(w), newBisectCDF(w)}
	}
	mixed := make([]float64, 37)
	src := New(18)
	for i := range mixed {
		if src.Intn(3) > 0 {
			mixed[i] = src.Float64()
		}
	}
	mixed[36] = 0.5
	cases := []tableCase{
		zipf("zipf-1", 1, 0.99),
		zipf("zipf-2", 2, 1),
		zipf("zipf-3", 3, 0.5),
		zipf("zipf-962-socialgraph", 962, 0.8),
		zipf("zipf-1000", 1000, 1),
		zipf("zipf-100000-memcached", 100_000, 0.99),
		zipf("zipf-1048576-etc-default", 1<<20, 0.99),
		weights("uniform-5", 1, 1, 1, 1, 1),
		weights("uniform-8-cdf-on-edges", 1, 1, 1, 1, 1, 1, 1, 1),
		weights("zero-inside", 1, 0, 3),
		weights("zeros-leading", 0, 0, 1),
		weights("zeros-trailing", 1, 0, 0),
		weights("one-heavy", 1e-12, 1, 1e-12, 1e-12, 1e-12, 1e-12),
		weights("random-with-zeros", mixed...),
	}

	const maxU = 1 - 1.0/(1<<53) // the largest value Float64 returns
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && len(tc.ref) > 100_000 {
				t.Skip("the 1M-outcome table is probed in the full suite only")
			}
			d, ref := tc.d, tc.ref
			for i := range ref {
				if math.Float64bits(d.cdf[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("cdf[%d] = %v, reference %v", i, d.cdf[i], ref[i])
				}
			}
			probes := []float64{0, maxU}
			for _, c := range ref {
				probes = append(probes, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
			}
			m := float64(len(d.guide))
			for j := range d.guide {
				edge := float64(j) / m
				probes = append(probes, edge, math.Nextafter(edge, 0))
			}
			for _, u := range probes {
				if u < 0 || u >= 1 {
					continue
				}
				if got, want := d.rank(u), ref.rank(u); got != want {
					t.Fatalf("rank(%v) = %d, reference %d", u, got, want)
				}
			}
			a, b := New(19), New(19)
			for i := 0; i < 20000; i++ {
				if got, want := d.Draw(a), ref.rank(b.Float64()); got != want {
					t.Fatalf("draw %d = %d, reference %d", i, got, want)
				}
			}
		})
	}
}

// Property: Exp is always non-negative and finite for any positive rate.
func TestPropertyExpFinite(t *testing.T) {
	f := func(seed uint64, rateRaw uint8) bool {
		rate := float64(rateRaw%100) + 0.5
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Exp(rate)
			if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intn(n) is always within [0, n).
func TestPropertyIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Exp(1e5)
	}
}

var sinkNormal float64

// BenchmarkFillNormal draws the 64 noise variates of one HDSearch query
// with one FillNormal call and with 64 Normal calls.
func BenchmarkFillNormal(b *testing.B) {
	dst := make([]float64, 64)
	b.Run("FillNormal", func(b *testing.B) {
		s := New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.FillNormal(dst, 0, 0.15)
		}
		sinkNormal = dst[0]
	})
	b.Run("Normal", func(b *testing.B) {
		s := New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = s.Normal(0, 0.15)
			}
		}
		sinkNormal = dst[0]
	})
}

// BenchmarkFillChunks draws one link's chunk of 32 jitter multipliers
// and one arrival source's chunk of 32 Poisson gaps, with one fill call
// and with 32 scalar calls each.
func BenchmarkFillChunks(b *testing.B) {
	dst := make([]float64, 32)
	for _, bc := range []struct {
		name string
		draw func(s *Stream)
	}{
		{"FillLogNormal", func(s *Stream) { s.FillLogNormal(dst, 0, 0.08) }},
		{"LogNormal", func(s *Stream) {
			for j := range dst {
				dst[j] = s.LogNormal(0, 0.08)
			}
		}},
		{"FillExp", func(s *Stream) { s.FillExp(dst, 5e4) }},
		{"Exp", func(s *Stream) {
			for j := range dst {
				dst[j] = s.Exp(5e4)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.draw(s)
			}
			sinkNormal = dst[0]
		})
	}
}

var sinkRank int

// BenchmarkZipfDraw measures one rank draw at the Memcached preload's
// key space (100K) and the ETC default (1M), through the guide table and
// through the bisection reference it replaced.
func BenchmarkZipfDraw(b *testing.B) {
	for _, n := range []int{100_000, 1 << 20} {
		d := NewZipf(n, 0.99)
		ref := newBisectCDF(zipfWeights(n, 0.99))
		b.Run(fmt.Sprintf("keys=%d/guide", n), func(b *testing.B) {
			s := New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRank = d.Draw(s)
			}
		})
		b.Run(fmt.Sprintf("keys=%d/bisect", n), func(b *testing.B) {
			s := New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRank = ref.rank(s.Float64())
			}
		})
	}
}
