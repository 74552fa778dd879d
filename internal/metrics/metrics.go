// Package metrics is the streaming measurement layer between the load
// generator and the statistics of §III: it decides what a run keeps of
// its per-request samples.
//
// The paper's methodology measures latency inside the generator (§II)
// and reduces each repetition to summary statistics (§III). Historically
// this repository retained every post-warmup sample per run and reduced
// the full slice afterwards, which caps run length and offered load at
// whatever fits in RAM. This package replaces that retain-everything
// path with a Recorder interface and two implementations:
//
//   - Exact keeps every sample and reduces with stats.Summarize — the
//     reference behaviour. Its summaries are bit-identical to the
//     historical path, which is what keeps the figure golden files
//     unchanged, and its retained samples feed the §III procedures that
//     need raw data (Shapiro–Wilk, ADF, the independence diagnostics).
//     The reduction is linear-time (stats.Sorted is a radix sort), and
//     the sample buffer is sized once per run from the run's expected
//     sample count, so a run that records about that many never regrows
//     it. Nothing outlives the run: each run's factory call allocates
//     fresh buffers, and no pool or cache keeps them for the next one.
//
//   - Streaming reduces online in O(1) memory per run, independent of
//     the sample count: mean/variance/min/max via Welford's algorithm
//     (exact up to floating point), and quantiles via a log-bucketed
//     fixed-relative-resolution histogram (stats.LogHistogram) whose
//     P50/P90/P95/P99 estimates are within a documented relative error
//     bound α (default 1%) of the true order statistics. A fixed-size
//     reservoir subsample, drawn deterministically from the run's
//     labeled RNG stream, stands in for the raw slice so that
//     order-insensitive distributional tests (Shapiro–Wilk normality)
//     still run at scale. The reservoir does NOT preserve arrival
//     order, so order-sensitive diagnostics (autocorrelation, turning
//     points, ADF) must not be applied to it; the repository's §III
//     independence checks operate on per-run sequences, which are
//     unaffected by the within-run reduction.
//
// Mode selects between them; SampleAuto switches to Streaming above a
// per-run sample-count threshold so small runs keep exact raw data and
// big runs keep bounded memory. Both implementations are deterministic:
// a Streaming recorder's output is a pure function of its configuration,
// the sample sequence and the stream it was built from, so experiment
// results remain byte-identical for every worker count.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Recorder consumes one metric's post-warmup samples and reduces them.
// Implementations are not safe for concurrent use; the simulation is
// single-threaded per run by design.
type Recorder interface {
	// Record consumes one sample.
	Record(v float64)
	// N returns the number of samples recorded.
	N() int
	// Summary reduces the recorded series.
	Summary() stats.Summary
	// Samples returns the recorder's retained raw samples: every sample
	// for Exact, a deterministic fixed-size reservoir subsample for
	// Streaming. The returned slice is owned by the recorder.
	Samples() []float64
}

// Exact retains every sample and reduces with the package stats batch
// estimators — the retain-everything reference recorder.
type Exact struct {
	xs []float64
}

// NewExact returns an empty exact recorder whose buffer holds expected
// samples plus 4·√expected of slack, four standard deviations of a
// Poisson count, so a run that records about what it expected never
// regrows it. Recording past that still works; the buffer then grows by
// append.
func NewExact(expected int) *Exact {
	if expected <= 0 {
		return &Exact{}
	}
	return &Exact{xs: make([]float64, 0, expected+int(math.Ceil(4*math.Sqrt(float64(expected)))))}
}

// Record appends the sample.
func (e *Exact) Record(v float64) { e.xs = append(e.xs, v) }

// N returns the sample count.
func (e *Exact) N() int { return len(e.xs) }

// Summary reduces with stats.Summarize, bit-identical to summarizing
// the retained slice directly. It sorts a copy, so Samples keeps record
// order.
func (e *Exact) Summary() stats.Summary { return stats.Summarize(e.xs) }

// Samples returns every recorded sample.
func (e *Exact) Samples() []float64 { return e.xs }

// Defaults for StreamingConfig's zero values.
const (
	// DefaultRelativeAccuracy is the default quantile error bound α:
	// P50/P90/P95/P99 are within 1% (relative) of the exact order
	// statistics.
	DefaultRelativeAccuracy = 0.01
	// DefaultReservoirSize is the default retained-subsample size —
	// enough for the §III normality and independence tests (Shapiro–Wilk
	// is applied to far smaller sets) while staying a fixed cost.
	DefaultReservoirSize = 1024
)

// StreamingConfig sizes a Streaming recorder. The zero value selects
// the package defaults.
type StreamingConfig struct {
	// RelativeAccuracy is the quantile sketch's error bound α in (0,1);
	// 0 selects DefaultRelativeAccuracy.
	RelativeAccuracy float64
	// ReservoirSize is the retained-subsample capacity; 0 selects
	// DefaultReservoirSize, negative disables the reservoir.
	ReservoirSize int
}

func (c StreamingConfig) accuracy() float64 {
	if c.RelativeAccuracy == 0 {
		return DefaultRelativeAccuracy
	}
	return c.RelativeAccuracy
}

func (c StreamingConfig) reservoir() int {
	if c.ReservoirSize == 0 {
		return DefaultReservoirSize
	}
	if c.ReservoirSize < 0 {
		return 0
	}
	return c.ReservoirSize
}

// Streaming reduces a sample stream in memory independent of its
// length: Welford moments, a log-bucketed quantile sketch, and a
// deterministic reservoir subsample.
type Streaming struct {
	mom  stats.Welford
	hist *stats.LogHistogram
	res  *Reservoir
}

// NewStreaming returns a streaming recorder. The stream seeds the
// reservoir's replacement draws; it may be nil when the reservoir is
// disabled.
func NewStreaming(cfg StreamingConfig, stream *rng.Stream) (*Streaming, error) {
	h, err := stats.NewLogHistogram(cfg.accuracy())
	if err != nil {
		return nil, err
	}
	s := &Streaming{hist: h}
	if k := cfg.reservoir(); k > 0 {
		if stream == nil {
			return nil, fmt.Errorf("metrics: streaming recorder with a reservoir needs an RNG stream")
		}
		s.res = NewReservoir(k, stream)
	}
	return s, nil
}

// Record consumes one sample.
func (s *Streaming) Record(v float64) {
	s.mom.Add(v)
	s.hist.Add(v)
	if s.res != nil {
		s.res.Offer(v)
	}
}

// N returns the sample count.
func (s *Streaming) N() int { return s.mom.N() }

// RelativeAccuracy returns the quantile error bound α the recorder's
// sketch guarantees.
func (s *Streaming) RelativeAccuracy() float64 { return s.hist.RelativeAccuracy() }

// Summary reduces the stream: N/Mean/StdDev/Min/Max are exact (up to
// floating point), Median/P90/P95/P99 are sketch estimates within the
// recorder's relative error bound, clamped to the observed [Min, Max].
func (s *Streaming) Summary() stats.Summary {
	sum := stats.Summary{
		N:      s.mom.N(),
		Mean:   s.mom.Mean(),
		StdDev: s.mom.StdDev(),
		Min:    s.mom.Min(),
		Max:    s.mom.Max(),
	}
	qs := s.hist.Quantiles(50, 90, 95, 99)
	sum.Median = s.clamp(qs[0])
	sum.P90 = s.clamp(qs[1])
	sum.P95 = s.clamp(qs[2])
	sum.P99 = s.clamp(qs[3])
	return sum
}

// clamp bounds a sketch estimate by the exactly tracked extrema, which
// only ever tightens the error.
func (s *Streaming) clamp(v float64) float64 {
	if s.mom.N() == 0 {
		return v
	}
	if v < s.mom.Min() {
		return s.mom.Min()
	}
	if v > s.mom.Max() {
		return s.mom.Max()
	}
	return v
}

// Samples returns the reservoir subsample (nil when disabled).
func (s *Streaming) Samples() []float64 {
	if s.res == nil {
		return nil
	}
	return s.res.Samples()
}

// Merge folds another streaming recorder into s, producing the
// distributional state of a recorder that consumed both streams: moments
// merge exactly (stats.Welford.Merge) and the quantile sketches merge
// bucket-for-bucket (stats.LogHistogram.Merge), so the merged Summary
// keeps the documented α error bound over the combined samples. This is
// the cross-run aggregation path: per-run recorders reduce to O(buckets)
// state that unions without retaining any per-run reservoirs.
//
// Reservoirs do NOT merge — a uniform subsample of a union cannot be
// reconstructed from two subsamples without their discarded elements, so
// s keeps its own reservoir and Samples() continues to describe only the
// samples s recorded directly. Both recorders must share the same
// relative accuracy. o is unchanged.
func (s *Streaming) Merge(o *Streaming) error {
	if err := s.hist.Merge(o.hist); err != nil {
		return err
	}
	s.mom.Merge(o.mom)
	return nil
}

// NewAggregate returns an empty reservoir-free streaming recorder with
// the given accuracy (0 selects the default) — the natural accumulator
// target for Merge when building cross-run aggregate distributions.
func NewAggregate(alpha float64) (*Streaming, error) {
	return NewStreaming(StreamingConfig{RelativeAccuracy: alpha, ReservoirSize: -1}, nil)
}

// Reservoir is a fixed-capacity uniform subsample of a stream (Vitter's
// algorithm R). Fed from a deterministic rng.Stream, its content is a
// pure function of the stream and the sample sequence, preserving the
// repository's byte-identical parallelism guarantee. Replacement
// scrambles arrival order, so the subsample supports distributional
// statistics but not order-sensitive (serial-dependence) tests.
type Reservoir struct {
	xs     []float64
	seen   int
	stream *rng.Stream
}

// NewReservoir returns an empty reservoir holding at most k samples.
func NewReservoir(k int, stream *rng.Stream) *Reservoir {
	if k < 1 {
		panic("metrics: reservoir capacity must be ≥1")
	}
	return &Reservoir{xs: make([]float64, 0, k), stream: stream}
}

// Offer consumes one sample, keeping it with probability capacity/seen.
func (r *Reservoir) Offer(v float64) {
	r.seen++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, v)
		return
	}
	if j := r.stream.Intn(r.seen); j < len(r.xs) {
		r.xs[j] = v
	}
}

// Seen returns how many samples were offered.
func (r *Reservoir) Seen() int { return r.seen }

// Samples returns the current subsample (owned by the reservoir).
func (r *Reservoir) Samples() []float64 { return r.xs }

// Mode selects a run's measurement reduction.
type Mode int

const (
	// SampleAuto selects Exact below a sample-count threshold and
	// Streaming above it (the scenario layer supplies the threshold).
	SampleAuto Mode = iota
	// SampleExact retains every sample.
	SampleExact
	// SampleStreaming reduces online in bounded memory.
	SampleStreaming
)

// String names the mode as the -samplemode flags spell it.
func (m Mode) String() string {
	switch m {
	case SampleAuto:
		return "auto"
	case SampleExact:
		return "exact"
	case SampleStreaming:
		return "streaming"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a -samplemode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto", "":
		return SampleAuto, nil
	case "exact":
		return SampleExact, nil
	case "streaming":
		return SampleStreaming, nil
	}
	return SampleAuto, fmt.Errorf("metrics: unknown sample mode %q (want auto, exact or streaming)", s)
}

// Factory builds one run's recorder pair — latency and send lag — from
// the run's RNG stream and the number of post-warmup samples the run
// expects to record (0 when unknown). Exact factories must not consume
// the stream, so that exact-mode simulations stay byte-identical to the
// historical retain-everything path; streaming factories split it for
// their reservoirs after the run's environment has drawn its own
// streams. A factory is called once per run and whatever it builds
// belongs to that run alone.
type Factory func(stream *rng.Stream, expected int) (latency, sendLag Recorder, err error)

// ExactFactory builds retain-everything recorder pairs, each buffer
// pre-sized for expected samples (see NewExact) and reduced by a
// linear-time sort. It never touches the stream.
func ExactFactory(_ *rng.Stream, expected int) (Recorder, Recorder, error) {
	return NewExact(expected), NewExact(expected), nil
}

// StreamingFactory returns a Factory building streaming recorder pairs
// with the given configuration. Their memory does not depend on the
// sample count, so they ignore the expected count.
func StreamingFactory(cfg StreamingConfig) Factory {
	return func(stream *rng.Stream, _ int) (Recorder, Recorder, error) {
		lat, err := NewStreaming(cfg, stream.Split())
		if err != nil {
			return nil, nil, err
		}
		lag, err := NewStreaming(cfg, stream.Split())
		if err != nil {
			return nil, nil, err
		}
		return lat, lag, nil
	}
}
