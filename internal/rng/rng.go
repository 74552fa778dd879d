// Package rng provides deterministic, splittable random number streams and
// the sampling distributions used throughout the testbed simulation.
//
// Every stochastic component of the simulation (inter-arrival times, service
// times, network jitter, workload key popularity) draws from its own Stream,
// derived from the experiment seed and a component label. Streams are
// independent by construction, so adding a new consumer of randomness never
// perturbs the draws seen by existing components — a property the paper's
// methodology depends on when comparing configurations ("reset the
// environment between runs", §III).
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances a 64-bit state and returns a well-mixed output. It is
// used both as a seeding function and as the stream-splitting function.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic pseudo-random stream (xoshiro256**). It is not
// safe for concurrent use, and needs no lock because each stream has one
// owner: runs, shards and sweep cells execute in parallel, but each
// derives its own streams (NewLabeled, Split) and draws from them on one
// goroutine at a time. A stream handed to another goroutine moves with
// its owner; it is never shared.
//
// A consumer that draws ahead, filling a chunk with FillExp,
// FillLogNormal or FillNormal and handing the values out later, must be
// its stream's only consumer, and the stream dies with it. Each value it
// hands out is then the one a draw at the moment of use would have
// returned; any other draw from the stream would land after the chunk
// instead of between its values.
type Stream struct {
	s [4]uint64

	// cached spare normal variate from the polar method
	hasSpare bool
	spare    float64
}

// New returns a stream seeded from seed. Distinct seeds give independent
// streams.
func New(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		st.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// NewLabeled returns a stream derived from a base seed and a label, so that
// components can obtain independent streams by name.
func NewLabeled(seed uint64, label string) *Stream {
	h := seed
	for _, b := range []byte(label) {
		h ^= uint64(b)
		h *= 0x100000001b3 // FNV-1a prime
	}
	return New(h)
}

// Split derives a new independent stream from s, advancing s once.
func (s *Stream) Split() *Stream {
	state := s.Uint64()
	return New(state)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), bound)
		}
	}
	return int(hi)
}

// Exp returns an exponentially distributed variate with the given rate
// (events per unit). The mean of the returned variate is 1/rate.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := s.Float64()
	// 1-u is in (0,1], so the log is finite.
	return -math.Log(1-u) / rate
}

// FillExp fills dst with exponentially distributed variates at the given
// rate. It draws exactly what len(dst) successive Exp(rate) calls draw,
// one uniform each, and returns their values bit for bit: it takes all
// the uniforms first, then all the logs, so the logs of independent
// draws overlap where successive Exp calls run them one after another.
// Like Exp, it panics if rate is not positive.
func (s *Stream) FillExp(dst []float64, rate float64) {
	if rate <= 0 {
		panic("rng: FillExp with non-positive rate")
	}
	for i := range dst {
		dst[i] = 1 - s.Float64()
	}
	for i, x := range dst {
		dst[i] = -math.Log(x) / rate
	}
}

// Normal returns a normally distributed variate with the given mean and
// standard deviation, using the Marsaglia polar method.
func (s *Stream) Normal(mean, stddev float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mean + stddev*s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return mean + stddev*u*f
	}
}

// normalChunk is the number of accepted pairs FillNormal draws before it
// transforms them.
const normalChunk = 16

// FillNormal fills dst with normally distributed variates with the given
// mean and standard deviation. It draws exactly what len(dst) successive
// Normal(mean, stddev) calls draw and leaves the stream as they leave it:
// the same uniforms, the same rejected pairs, a spare left by an earlier
// Normal used first, and a spare left for the next call when it ends
// inside a pair.
//
// It accepts up to normalChunk pairs before transforming any, then takes
// all their logs, then all their divides and square roots, so the
// Log → divide → Sqrt chains of independent pairs overlap where successive
// Normal calls run them one after another.
func (s *Stream) FillNormal(dst []float64, mean, stddev float64) {
	i := 0
	if s.hasSpare && len(dst) > 0 {
		s.hasSpare = false
		dst[0] = mean + stddev*s.spare
		i = 1
	}
	var us, vs, qs, fs [normalChunk]float64
	for i < len(dst) {
		pairs := min((len(dst)-i+1)/2, normalChunk)
		for k := 0; k < pairs; {
			u := 2*s.Float64() - 1
			v := 2*s.Float64() - 1
			q := u*u + v*v
			if q == 0 || q >= 1 {
				continue
			}
			us[k], vs[k], qs[k] = u, v, q
			k++
		}
		for k := 0; k < pairs; k++ {
			fs[k] = math.Log(qs[k])
		}
		for k := 0; k < pairs; k++ {
			fs[k] = math.Sqrt(-2 * fs[k] / qs[k])
		}
		for k := 0; k < pairs; k++ {
			f := fs[k]
			// Normal's two return expressions, in its rounding order.
			dst[i] = mean + stddev*us[k]*f
			spare := vs[k] * f
			if i+1 == len(dst) {
				s.spare, s.hasSpare = spare, true
				return
			}
			dst[i+1] = mean + stddev*spare
			i += 2
		}
	}
}

// LogNormal returns a log-normally distributed variate where the underlying
// normal has parameters mu and sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// FillLogNormal fills dst with log-normally distributed variates whose
// underlying normal has parameters mu and sigma. It draws exactly what
// len(dst) successive LogNormal(mu, sigma) calls draw and leaves the
// stream as they leave it, spare included (FillNormal), then takes all
// the exps, so independent chains overlap as in FillNormal.
func (s *Stream) FillLogNormal(dst []float64, mu, sigma float64) {
	s.FillNormal(dst, mu, sigma)
	for i, x := range dst {
		dst[i] = math.Exp(x)
	}
}

// Gamma returns a Gamma(shape, scale) variate with mean shape·scale,
// using the Marsaglia–Tsang squeeze method (with the standard boost for
// shape < 1). Gamma inter-arrival times are how bursty arrival processes
// are parameterized: a coefficient of variation above 1 clusters
// requests into bursts, below 1 regularizes them.
func (s *Stream) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
		u := s.Float64()
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull returns a Weibull(shape, scale) variate by inversion, with
// mean scale·Γ(1+1/shape). Shape < 1 gives a heavy-tailed inter-arrival
// distribution (long gaps separating clusters of requests); shape > 1
// approaches regular pacing.
func (s *Stream) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	u := s.Float64()
	// 1-u is in (0,1], so the log is finite.
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Pareto returns a Pareto(shape, scale) variate with support [scale, ∞).
func (s *Stream) Pareto(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Pareto with non-positive parameter")
	}
	u := s.Float64()
	return scale / math.Pow(1-u, 1/shape)
}

// GeneralizedPareto returns a GPD(location, scale, shape) variate. The ETC
// workload characterization of Facebook's Memcached pools models value sizes
// with a generalized Pareto tail (Atikoglu et al., SIGMETRICS'12), which is
// why the workload package needs it.
func (s *Stream) GeneralizedPareto(location, scale, shape float64) float64 {
	u := s.Float64()
	if math.Abs(shape) < 1e-12 {
		return location - scale*math.Log(1-u)
	}
	return location + scale*(math.Pow(1-u, -shape)-1)/shape
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and normal approximation with rejection
// for large means.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// PTRS-style transformed rejection would be ideal; a clamped normal
	// approximation is adequate for mean ≥ 30 in this simulation.
	for {
		x := s.Normal(mean, math.Sqrt(mean))
		if x >= 0 {
			return int(x + 0.5)
		}
	}
}

// Discrete samples a finite distribution by inversion: a draw returns the
// first outcome whose cumulative probability reaches a uniform variate u.
// A guide table (Chen and Asau's indexed search) holds, for each of m
// equal slices of [0, 1), the first outcome whose CDF reaches the slice's
// lower edge; a draw starts there and steps forward, so it costs at most
// 1 + n/m comparisons in expectation instead of a log₂ n bisection. With
// m a power of two, u·m and the slice edges are exact in float64, so the
// result is bit-for-bit the binary search's over the same CDF.
//
// m is the smallest power of two ≥ n/4: at most 5 expected comparisons,
// on adjacent CDF entries. Draws index the guide uniformly but mostly hit
// the CDF's popular head, so the guide's size costs cache misses that a
// longer scan does not. Against a guide as long as the CDF, this one drew
// ~5 ns slower at 100K outcomes in isolation, ~25 ns faster at 1M, and
// ran the Memcached benchmark workload faster end to end.
//
// A Discrete holds no stream and is immutable once built: one table
// serves any number of streams and goroutines, each passing its own
// stream to Draw.
type Discrete struct {
	cdf   []float64
	guide []int32 // guide[j]: first outcome whose CDF ≥ j/len(guide)
}

// NewDiscrete builds a sampler over len(weights) outcomes with the given
// relative weights. Weights must be non-negative with a positive sum.
func NewDiscrete(weights []float64) *Discrete {
	return newDiscrete(append([]float64(nil), weights...))
}

// NewZipf builds a sampler over ranks [0, n) following a Zipf
// distribution with exponent alpha > 0: rank i has weight 1/(i+1)^alpha,
// so rank 0 is the most popular.
func NewZipf(n int, alpha float64) *Discrete {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), alpha)
	}
	return newDiscrete(w)
}

// newDiscrete builds the sampler over the weights in w, overwriting w
// with their CDF.
func newDiscrete(w []float64) *Discrete {
	if len(w) == 0 {
		panic("rng: Discrete with no outcomes")
	}
	sum := 0.0
	for i, x := range w {
		if x < 0 {
			panic("rng: Discrete with negative weight")
		}
		sum += x
		w[i] = sum
	}
	if sum <= 0 {
		panic("rng: Discrete with zero total weight")
	}
	for i := range w {
		w[i] /= sum
	}
	// The last entry is sum/sum = 1 exactly and u < 1, so every scan
	// below and in rank stops inside the table.
	m := 1
	for 4*m < len(w) {
		m <<= 1
	}
	guide := make([]int32, m)
	i := 0
	for j := range guide {
		edge := float64(j) / float64(m)
		for w[i] < edge {
			i++
		}
		guide[j] = int32(i)
	}
	return &Discrete{cdf: w, guide: guide}
}

// Draw returns the next outcome index, consuming one Float64 from s.
func (d *Discrete) Draw(s *Stream) int {
	return d.rank(s.Float64())
}

// rank returns the first outcome whose CDF is ≥ u, for u in [0, 1).
// u lies in guide slice j = ⌊u·m⌋, whose edge j/m ≤ u, so the scan
// starts at or before the answer and every outcome it passes has a CDF
// below u.
func (d *Discrete) rank(u float64) int {
	i := int(d.guide[int(u*float64(len(d.guide)))])
	for d.cdf[i] < u {
		i++
	}
	return i
}
