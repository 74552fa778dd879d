package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{2.5, 2.5, 2.5, 2.5}, 2.5},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n−1: 32/7.
	want := 32.0 / 7.0
	if got := Variance(x); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(x); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(want))
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{[]float64{1, 1, 1, 1, 100}, 1},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	x := []float64{3, 1, 2}
	Median(x)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Errorf("Median mutated its input: %v", x)
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5},
		{25, 3.25},
		{90, 9.1},
		{99, 9.91},
		{math.NaN(), math.NaN()},
	}
	for _, c := range cases {
		if got := Percentile(x, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
		if got := PercentileSorted(x, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("PercentileSorted(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	x := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6}
	s := Sorted(x)
	for _, p := range []float64{0, 10, 33, 50, 75, 99, 100} {
		if a, b := Percentile(x, p), PercentileSorted(s, p); !almostEqual(a, b, 1e-12) {
			t.Errorf("p=%v: Percentile=%v PercentileSorted=%v", p, a, b)
		}
	}
}

func TestMinMax(t *testing.T) {
	x := []float64{3, -2, 8, 0}
	if Min(x) != -2 {
		t.Errorf("Min = %v, want -2", Min(x))
	}
	if Max(x) != 8 {
		t.Errorf("Max = %v, want 8", Max(x))
	}
}

func TestSummarize(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = float64(i + 1) // 1..100
	}
	s := Summarize(x)
	if s.N != 100 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEqual(s.Mean, 50.5, 1e-12) {
		t.Errorf("Mean = %v", s.Mean)
	}
	if !almostEqual(s.Median, 50.5, 1e-12) {
		t.Errorf("Median = %v", s.Median)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !almostEqual(s.P99, 99.01, 1e-9) {
		t.Errorf("P99 = %v, want 99.01", s.P99)
	}
	empty := Summarize(nil)
	if !math.IsNaN(empty.Mean) || empty.N != 0 {
		t.Error("Summarize(nil) should be NaN-filled with N=0")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	x := []float64{10, 10, 10, 10}
	if got := CoefficientOfVariation(x); !almostEqual(got, 0, 1e-12) {
		t.Errorf("CV of constant data = %v, want 0", got)
	}
}

// Property: median is always within [min, max] and percentiles are monotone.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Keep magnitudes where linear interpolation cannot overflow.
			if !math.IsNaN(v) && math.Abs(v) < 1e300 {
				x = append(x, v)
			}
		}
		if len(x) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(x, p)
			if v < prev {
				return false
			}
			prev = v
		}
		med := Median(x)
		return med >= Min(x) && med <= Max(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestPropertyMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && math.Abs(v) < 1e100 {
				x = append(x, v)
			}
		}
		if len(x) == 0 {
			return true
		}
		m := Mean(x)
		return m >= Min(x)-1e-9 && m <= Max(x)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceSorted is the comparison-sort oracle Sorted is checked
// against.
func referenceSorted(x []float64) []float64 {
	c := append([]float64(nil), x...)
	sort.Float64s(c)
	return c
}

// checkSorted reports how Sorted(x) departs from the reference. The two
// must agree bit for bit except where sort.Float64s leaves the order
// unspecified: among NaNs, which both put first (Sorted keeps their
// input order), and between −0 and +0 (Sorted puts −0 first). It also
// runs both of Sorted's key sorts on x's keys, whatever its length, so
// a short input still checks the radix sort.
func checkSorted(x []float64) error {
	var keys []uint64
	for _, v := range x {
		if !math.IsNaN(v) {
			keys = append(keys, sortKey(v))
		}
	}
	radix := radixSort(slices.Clone(keys))
	slices.Sort(keys)
	if !slices.Equal(radix, keys) {
		return fmt.Errorf("radixSort disagrees with slices.Sort on %d keys", len(keys))
	}
	got, want := Sorted(x), referenceSorted(x)
	if len(got) != len(want) {
		return fmt.Errorf("len %d, want %d", len(got), len(want))
	}
	var nans []uint64
	for _, v := range x {
		if math.IsNaN(v) {
			nans = append(nans, math.Float64bits(v))
		}
	}
	for i, b := range nans {
		if g := math.Float64bits(got[i]); g != b {
			return fmt.Errorf("[%d] = %#x, want NaN %#x (NaNs first, in input order)", i, g, b)
		}
		if !math.IsNaN(want[i]) {
			return fmt.Errorf("reference puts %v at NaN slot %d", want[i], i)
		}
	}
	gotNeg, wantNeg := 0, 0 // −0s among the zeros
	for i := len(nans); i < len(got); i++ {
		g, w := got[i], want[i]
		if g == 0 && w == 0 {
			if math.Signbit(g) {
				if i > 0 && got[i-1] == 0 && !math.Signbit(got[i-1]) {
					return fmt.Errorf("[%d] = −0 after +0", i)
				}
				gotNeg++
			}
			if math.Signbit(w) {
				wantNeg++
			}
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("[%d] = %v (%#x), want %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if gotNeg != wantNeg {
		return fmt.Errorf("%d −0s, want %d", gotNeg, wantNeg)
	}
	return nil
}

// benchLatencies draws n log-normal latencies quantised to whole
// nanoseconds and divided by 1e3, as loadgen records them.
func benchLatencies(n int, seed uint64) []float64 {
	s := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(time.Duration(s.LogNormal(math.Log(60e3), 0.6))) / 1e3
	}
	return x
}

func TestSortedMatchesReference(t *testing.T) {
	negNaN := math.Float64frombits(0xfff8000000000001)
	sNaN := math.Float64frombits(0x7ff0000000000001)
	tiny := math.SmallestNonzeroFloat64
	ramp := func(n int, f func(i int) float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = f(i)
		}
		return x
	}
	s := rng.New(3)
	cases := []struct {
		name string
		x    []float64
	}{
		{"nil", nil},
		{"empty", []float64{}},
		{"one", []float64{4.5}},
		{"one-nan", []float64{math.NaN()}},
		{"two-sorted", []float64{1, 2}},
		{"two-reversed", []float64{2, 1}},
		{"two-zeros", []float64{0, math.Copysign(0, -1)}},
		{"duplicates", []float64{3, 1, 3, 2, 1, 3, -1, -1}},
		// Every digit is shared, so every pass is skipped.
		{"all-equal", ramp(1000, func(int) float64 { return 7.25 })},
		{"all-nan", []float64{math.NaN(), negNaN, sNaN}},
		{"subnormals", []float64{tiny, -tiny, 3 * tiny, 2.2e-308, -2.2e-308, 0, tiny, math.Copysign(0, -1)}},
		{"infinities", []float64{math.Inf(1), 1, math.Inf(-1), -math.MaxFloat64, math.MaxFloat64, math.Inf(1), 0}},
		{"zeros", []float64{0, math.Copysign(0, -1), 1, 0, -1, math.Copysign(0, -1), 0}},
		{"nans", []float64{2, math.NaN(), -3, negNaN, math.Inf(-1), sNaN, 0, math.NaN()}},
		// Keys differing only in their lowest digits skip the upper passes.
		{"ulp-steps", ramp(3000, func(i int) float64 { return math.Float64frombits(math.Float64bits(1) + uint64((i*7919)%3000)) })},
		// Powers of two share every mantissa digit and differ only in the
		// exponent, so the lower passes are skipped.
		{"powers-of-two", ramp(400, func(i int) float64 { return math.Ldexp(1, (i*37)%400-200) * float64(1-2*(i%2)) })},
		{"mixed-signs", ramp(5000, func(int) float64 { return s.Normal(0, 10) })},
		{"latencies", benchLatencies(20_000, 5)},
	}
	for _, c := range cases {
		if err := checkSorted(c.x); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestSortedDoesNotMutateInput(t *testing.T) {
	x := benchLatencies(500, 9)
	orig := slices.Clone(x)
	Sorted(x)
	if !slices.Equal(x, orig) {
		t.Error("Sorted mutated its input")
	}
}

// FuzzSortedMatchesReference reads the input as little-endian float64
// bit patterns, so every NaN payload, subnormal and signed zero is
// reachable.
func FuzzSortedMatchesReference(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(enc(3, 1, 2))
	f.Add(enc(0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.Inf(1), math.SmallestNonzeroFloat64))
	f.Add(enc(benchLatencies(64, 1)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		x := make([]float64, len(b)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		if err := checkSorted(x); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkSorted sorts 150K latencies, about one paper-lp repetition's
// worth, with Sorted ("radix") and with the reference comparison sort.
// The keys sub-benchmarks time Sorted's two key sorts on either side of
// radixMinLen, the crossover they measure.
func BenchmarkSorted(b *testing.B) {
	x := benchLatencies(150_000, 1)
	b.Run("radix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sortedSink = Sorted(x)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sortedSink = referenceSorted(x)
		}
	})
	for _, n := range []int{1024, 1536, 1792, 2048} {
		keys := make([]uint64, n)
		for i, v := range benchLatencies(n, 2) {
			keys[i] = sortKey(v)
		}
		buf := make([]uint64, n)
		b.Run(fmt.Sprintf("keys/radix/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, keys)
				keySink = radixSort(buf)
			}
		})
		b.Run(fmt.Sprintf("keys/comparison/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, keys)
				slices.Sort(buf)
			}
		})
	}
}

var (
	sortedSink []float64
	keySink    []uint64
)
