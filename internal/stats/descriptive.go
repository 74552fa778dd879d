// Package stats implements the statistical methodology of the paper's
// Section III: descriptive summaries, parametric and non-parametric
// confidence intervals (Eqs. 1–2), the Jain sample-size rule (Eq. 3), the
// CONFIRM repetition estimator, the Shapiro–Wilk normality test, and the
// sample-independence diagnostics (autocorrelation, turning-point test,
// lag plots) the paper lists for assessing iid-ness.
//
// All functions operate on plain []float64 samples and are deterministic;
// the only randomized procedure (CONFIRM) takes an explicit random stream.
package stats

import (
	"errors"
	"math"
	"slices"
)

// ErrInsufficientData indicates that a procedure was handed fewer samples
// than it mathematically requires.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean. It returns NaN for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the unbiased (n−1) sample variance. It returns NaN for
// fewer than two samples.
func Variance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(x)
	ss := 0.0
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// Min returns the smallest sample. It returns NaN for an empty slice.
func Min(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample. It returns NaN for an empty slice.
func Max(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Sorted returns an ascending copy of x in linear time. NaNs come
// first, in input order and with their bits kept, where sort.Float64s
// places them; −0 sorts before +0. Any correct sort yields the same
// array up to those two orders, so every statistic reduced from the
// copy keeps its bits whichever sort produced it.
//
// It sorts order-preserving integer keys (see sortKey): by radixSort
// from radixMinLen keys up, and by a comparison sort below, where the
// radix sort's fixed cost of 6×2048 counters dominates. Both give the
// one ascending key order, so the cutoff never changes the output.
func Sorted(x []float64) []float64 {
	out := make([]float64, len(x))
	keys := make([]uint64, 0, len(x))
	nan := 0
	for _, v := range x {
		if math.IsNaN(v) {
			out[nan] = v
			nan++
			continue
		}
		keys = append(keys, sortKey(v))
	}
	if len(keys) < radixMinLen {
		slices.Sort(keys)
	} else {
		keys = radixSort(keys)
	}
	for i, k := range keys {
		out[nan+i] = math.Float64frombits(fromSortKey(k))
	}
	return out
}

// Radix-sort geometry: six 11-bit digits cover a 64-bit key, the top
// digit holding the remaining 9 bits. radixMinLen is the crossover
// BenchmarkSorted's keys sub-benchmarks measure: the comparison sort
// wins at 1536 keys, the two tie near 1792 and the radix sort wins from
// 2048 up.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
	radixPasses  = (64 + radixBits - 1) / radixBits
	radixMinLen  = 1792
)

// radixSort sorts keys by an LSD radix sort and returns the sorted
// slice, which is keys or a scratch buffer of the same length. Every
// digit histogram comes from one read of keys, and a pass is skipped
// when one bucket holds every key: samples sharing their sign and
// exponent skip the top digit.
func radixSort(keys []uint64) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	var counts [radixPasses][radixBuckets]int
	for _, k := range keys {
		counts[0][k&radixMask]++
		counts[1][k>>radixBits&radixMask]++
		counts[2][k>>(2*radixBits)&radixMask]++
		counts[3][k>>(3*radixBits)&radixMask]++
		counts[4][k>>(4*radixBits)&radixMask]++
		counts[5][k>>(5*radixBits)]++
	}
	src, dst := keys, []uint64(nil)
	for d := range counts {
		shift := uint(d * radixBits)
		c := &counts[d]
		if c[src[0]>>shift&radixMask] == len(src) {
			continue // one bucket holds every key
		}
		if dst == nil {
			dst = make([]uint64, len(src))
		}
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, k := range src {
			b := k >> shift & radixMask
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// sortKey maps a non-NaN float to a uint64 whose unsigned order is the
// float order, with −0 just below +0: every bit of a negative value is
// flipped, and a non-negative value gains the sign bit.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// fromSortKey inverts sortKey, returning the float's bits.
func fromSortKey(k uint64) uint64 {
	return k ^ (uint64(int64(^k)>>63) | 1<<63)
}

// Median returns the sample median (average of the two central order
// statistics for even n). It returns NaN for an empty slice.
func Median(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	return medianSorted(Sorted(x))
}

// medianSorted is Median for a non-empty ascending slice.
func medianSorted(c []float64) float64 {
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks (the same estimator NumPy's default
// and most load generators use). It returns NaN for an empty slice or a
// NaN p.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	return PercentileSorted(Sorted(x), p)
}

// PercentileSorted is Percentile for data already sorted ascending,
// avoiding the copy. The caller must guarantee sortedness.
func PercentileSorted(c []float64, p float64) float64 {
	n := len(c)
	if n == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Summary bundles the descriptive statistics the experiment harness reports
// for every metric.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64
	Min    float64
	Max    float64
	P90    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary from one sorted copy (see Sorted: linear
// time, NaNs first). The mean is summed over the sorted copy, so it keeps
// its bits whatever order x arrived in.
func Summarize(x []float64) Summary {
	if len(x) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, Median: nan, StdDev: nan, Min: nan, Max: nan, P90: nan, P95: nan, P99: nan}
	}
	c := Sorted(x)
	n := len(c)
	return Summary{
		N:      n,
		Mean:   Mean(c),
		Median: medianSorted(c),
		StdDev: StdDev(c),
		Min:    c[0],
		Max:    c[n-1],
		P90:    PercentileSorted(c, 90),
		P95:    PercentileSorted(c, 95),
		P99:    PercentileSorted(c, 99),
	}
}

// CoefficientOfVariation returns StdDev/Mean, a scale-free dispersion
// measure used when comparing variability across configurations whose
// absolute latencies differ (e.g. Fig. 5 discussion).
func CoefficientOfVariation(x []float64) float64 {
	m := Mean(x)
	if m == 0 {
		return math.NaN()
	}
	return StdDev(x) / m
}
