// Command confirmtool analyzes a set of measurement samples the way the
// paper's §III and §V-C prescribe: normality (Shapiro–Wilk), iid-ness
// (autocorrelation, turning-point test), and the number of repetitions
// needed for a 95% confidence interval with bounded error — parametric
// (Jain Eq. 3) and non-parametric (CONFIRM).
//
// Input is one finite sample per line (plain numbers; blank lines and
// #-comments are skipped), from a file or stdin:
//
//	confirmtool -err 1 samples.txt
//	labsim ... | awk '{print $2}' | confirmtool
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/stats"
)

func main() {
	errPct := flag.Float64("err", 1, "target CI half-width as % of the estimate")
	confidence := flag.Float64("confidence", 0.95, "confidence level")
	seed := flag.Uint64("seed", 1, "seed for CONFIRM's resampling")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "confirmtool:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	samples, err := readSamples(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "confirmtool:", err)
		os.Exit(1)
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "confirmtool: no samples")
		os.Exit(1)
	}

	sum := stats.Summarize(samples)
	fmt.Printf("samples: n=%d mean=%.4g median=%.4g stddev=%.4g min=%.4g max=%.4g\n\n",
		sum.N, sum.Mean, sum.Median, sum.StdDev, sum.Min, sum.Max)

	fmt.Println("— distribution —")
	if sw, err := stats.ShapiroWilk(samples); err == nil {
		verdict := "consistent with normal"
		if !sw.Normal(0.05) {
			verdict = "NOT normal (use non-parametric statistics)"
		}
		fmt.Printf("Shapiro–Wilk: W=%.4f p=%.4g → %s\n", sw.W, sw.PValue, verdict)
	} else {
		fmt.Printf("Shapiro–Wilk: %v\n", err)
	}
	if ad, err := stats.AndersonDarling(samples); err == nil {
		fmt.Printf("Anderson–Darling: A²=%.3f (5%% critical %.3f) → normal: %v\n", ad.A2, ad.Critical, ad.Normal())
	}

	fmt.Println("\n— iid-ness —")
	if r, err := stats.Autocorrelation(samples, 1); err == nil {
		fmt.Printf("lag-1 autocorrelation: %.3f (≈0 means independent)\n", r)
	}
	if tp, err := stats.TurningPointTest(samples); err == nil {
		fmt.Printf("turning-point test: %d turning points (expected %.1f), p=%.3f → random: %v\n",
			tp.TurningPoints, tp.Expected, tp.PValue, tp.Random(0.05))
	}
	if adf, err := stats.ADF(samples, stats.DefaultADFLags(len(samples))); err == nil {
		fmt.Printf("augmented Dickey–Fuller: t=%.3f (5%% critical %.2f) → stationary: %v\n",
			adf.Statistic, adf.Critical5, adf.Stationary())
	}

	fmt.Println("\n— confidence intervals —")
	if iv, err := stats.ParametricCI(samples, *confidence); err == nil {
		fmt.Printf("parametric (mean):       %s (half-width %.2f%%)\n", iv, iv.HalfWidthPct())
	}
	if iv, err := stats.NonParametricCI(samples, *confidence); err == nil {
		fmt.Printf("non-parametric (median): %s (half-width %.2f%%)\n", iv, iv.HalfWidthPct())
	}

	fmt.Println("\n— repetitions for target error —")
	if n, err := stats.JainIterations(samples, *confidence, *errPct); err == nil {
		fmt.Printf("parametric (Jain Eq. 3): %d iterations\n", n)
	} else {
		fmt.Printf("parametric (Jain Eq. 3): %v\n", err)
	}
	cfg := stats.DefaultConfirmConfig()
	cfg.Confidence = *confidence
	cfg.ErrPct = *errPct
	if cr, err := stats.Confirm(samples, cfg, rng.New(*seed)); err == nil {
		if cr.Converged {
			fmt.Printf("CONFIRM:                 %d iterations (achieved %.2f%% error)\n", cr.Iterations, cr.AchievedErrPct)
		} else {
			fmt.Printf("CONFIRM:                 >%d iterations (collect more runs)\n", len(samples))
		}
	} else {
		fmt.Printf("CONFIRM:                 %v\n", err)
	}
}

func readSamples(r io.Reader) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("line %d: %q is not a finite number", line, text)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}
