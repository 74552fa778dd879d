package stats

import (
	"fmt"
	"math"
)

// Interval is a confidence interval around a point estimate.
type Interval struct {
	Point      float64 // the estimate the interval brackets (mean or median)
	Lower      float64
	Upper      float64
	Confidence float64 // e.g. 0.95
}

// Overlaps reports whether two intervals overlap. Per the paper (§III): "In
// order to be confident that a mean is higher than another, their CI should
// not overlap."
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lower <= other.Upper && other.Lower <= iv.Upper
}

// HalfWidthPct returns the half-width of the interval as a percentage of
// the point estimate — the "error" figure the paper's evaluation-time
// analysis targets (≤1 %).
func (iv Interval) HalfWidthPct() float64 {
	if iv.Point == 0 {
		return math.NaN()
	}
	half := math.Max(iv.Upper-iv.Point, iv.Point-iv.Lower)
	return 100 * half / math.Abs(iv.Point)
}

func (iv Interval) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] @%g%%", iv.Point, iv.Lower, iv.Upper, iv.Confidence*100)
}

// zScore returns the two-sided standard-normal critical value for the given
// confidence level (0.95 → 1.96).
func zScore(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("stats: confidence %v outside (0,1)", confidence))
	}
	alpha := 1 - confidence
	return NormalQuantile(1 - alpha/2)
}

// NonParametricCI computes the distribution-free confidence interval for
// the median using the paper's Equations 1–2:
//
//	Lower_bound = ⌊(n − z·√n)/2⌋
//	Upper_bound = ⌈1 + (n + z·√n)/2⌉
//
// where bounds are 1-based ranks into the sorted sample. The paper uses
// this form (from Le Boudec) for all reported intervals because systems
// measurements are frequently non-normal. Requires enough samples for the
// rank bounds to be in range; the paper (following CONFIRM) treats n < 10
// as unreliable, and this function returns ErrInsufficientData below that.
func NonParametricCI(x []float64, confidence float64) (Interval, error) {
	n := len(x)
	if n < 10 {
		return Interval{}, fmt.Errorf("%w: need ≥10 samples for a non-parametric CI, have %d", ErrInsufficientData, n)
	}
	z := zScore(confidence)
	fn := float64(n)
	loRank := int(math.Floor((fn - z*math.Sqrt(fn)) / 2))
	hiRank := int(math.Ceil(1 + (fn+z*math.Sqrt(fn))/2))
	if loRank < 1 {
		loRank = 1
	}
	if hiRank > n {
		hiRank = n
	}
	c := Sorted(x)
	return Interval{
		Point:      medianSorted(c),
		Lower:      c[loRank-1],
		Upper:      c[hiRank-1],
		Confidence: confidence,
	}, nil
}

// ParametricCI computes the normal-theory confidence interval for the mean:
// mean ± z·s/√n. The paper uses the z (not t) form, matching Jain's
// treatment for the sample sizes involved.
func ParametricCI(x []float64, confidence float64) (Interval, error) {
	n := len(x)
	if n < 2 {
		return Interval{}, fmt.Errorf("%w: need ≥2 samples for a parametric CI, have %d", ErrInsufficientData, n)
	}
	z := zScore(confidence)
	m := Mean(x)
	half := z * StdDev(x) / math.Sqrt(float64(n))
	return Interval{Point: m, Lower: m - half, Upper: m + half, Confidence: confidence}, nil
}
