package stats

import (
	"fmt"
	"math"
)

// ShapiroWilkResult holds the test statistic and p-value of a Shapiro–Wilk
// normality test. The paper (Fig. 8, Table IV) rejects normality when the
// p-value falls below the significance threshold (0.05).
type ShapiroWilkResult struct {
	W      float64 // test statistic in (0, 1]; near 1 means normal-looking
	PValue float64
	N      int
}

// Normal reports whether the data is consistent with a normal distribution
// at the given significance level (the test fails to reject normality).
func (r ShapiroWilkResult) Normal(alpha float64) bool {
	return r.PValue >= alpha
}

// ShapiroWilk runs the Shapiro–Wilk W test for normality using Royston's
// AS R94 algorithm (Applied Statistics 44, 1995), the same algorithm
// behind R's shapiro.test and SciPy's shapiro. Valid for 3 ≤ n ≤ 5000.
func ShapiroWilk(x []float64) (ShapiroWilkResult, error) {
	n := len(x)
	if n < 3 {
		return ShapiroWilkResult{}, fmt.Errorf("%w: Shapiro–Wilk needs ≥3 samples, have %d", ErrInsufficientData, n)
	}
	if n > 5000 {
		return ShapiroWilkResult{}, fmt.Errorf("stats: Shapiro–Wilk approximation invalid beyond 5000 samples, have %d", n)
	}

	sorted := Sorted(x)
	if sorted[0] == sorted[n-1] {
		return ShapiroWilkResult{}, fmt.Errorf("stats: Shapiro–Wilk undefined for constant data")
	}

	// Expected values of normal order statistics (Blom approximation) and
	// the weight vector a.
	m := make([]float64, n)
	ssumM2 := 0.0
	for i := 0; i < n; i++ {
		m[i] = NormalQuantile((float64(i+1) - 0.375) / (float64(n) + 0.25))
		ssumM2 += m[i] * m[i]
	}

	a := make([]float64, n)
	rsn := 1 / math.Sqrt(float64(n))
	if n == 3 {
		a[0] = math.Sqrt(0.5)
		a[2] = -a[0]
	} else {
		// Polynomial corrections for the extreme weights (Royston 1995).
		an := -2.706056*pow5(rsn) + 4.434685*pow4(rsn) - 2.071190*pow3(rsn) - 0.147981*rsn*rsn + 0.221157*rsn + m[n-1]/math.Sqrt(ssumM2)
		var an1 float64
		var phi float64
		if n > 5 {
			an1 = -3.582633*pow5(rsn) + 5.682633*pow4(rsn) - 1.752461*pow3(rsn) - 0.293762*rsn*rsn + 0.042981*rsn + m[n-2]/math.Sqrt(ssumM2)
			phi = (ssumM2 - 2*m[n-1]*m[n-1] - 2*m[n-2]*m[n-2]) / (1 - 2*an*an - 2*an1*an1)
			a[n-1], a[n-2] = an, an1
			a[0], a[1] = -an, -an1
			for i := 2; i < n-2; i++ {
				a[i] = m[i] / math.Sqrt(phi)
			}
		} else {
			phi = (ssumM2 - 2*m[n-1]*m[n-1]) / (1 - 2*an*an)
			a[n-1] = an
			a[0] = -an
			for i := 1; i < n-1; i++ {
				a[i] = m[i] / math.Sqrt(phi)
			}
		}
	}

	// W statistic.
	mean := Mean(sorted)
	num, den := 0.0, 0.0
	for i, v := range sorted {
		num += a[i] * v
		d := v - mean
		den += d * d
	}
	w := num * num / den
	if w > 1 {
		w = 1 // guard against rounding slightly above 1
	}

	// P-value via the normalizing transformations of Royston (1992/1995).
	var pval float64
	switch {
	case n == 3:
		// Exact small-sample distribution.
		pval = (6 / math.Pi) * (math.Asin(math.Sqrt(w)) - math.Asin(math.Sqrt(0.75)))
		if pval < 0 {
			pval = 0
		}
	case n <= 11:
		fn := float64(n)
		gamma := -2.273 + 0.459*fn
		lw := -math.Log(gamma - math.Log1p(-w))
		mu := 0.5440 - 0.39978*fn + 0.025054*fn*fn - 0.0006714*fn*fn*fn
		sigma := math.Exp(1.3822 - 0.77857*fn + 0.062767*fn*fn - 0.0020322*fn*fn*fn)
		pval = 1 - NormalCDF((lw-mu)/sigma)
	default:
		lnN := math.Log(float64(n))
		lw := math.Log1p(-w)
		mu := -1.5861 - 0.31082*lnN - 0.083751*lnN*lnN + 0.0038915*lnN*lnN*lnN
		sigma := math.Exp(-0.4803 - 0.082676*lnN + 0.0030302*lnN*lnN)
		pval = 1 - NormalCDF((lw-mu)/sigma)
	}

	return ShapiroWilkResult{W: w, PValue: pval, N: n}, nil
}

func pow3(x float64) float64 { return x * x * x }
func pow4(x float64) float64 { return x * x * x * x }
func pow5(x float64) float64 { return x * x * x * x * x }
