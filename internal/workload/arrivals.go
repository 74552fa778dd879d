package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
)

// Arrival process names — the workload-spec spellings of the load
// intensity models a generator can replay. Poisson and fixed pacing are
// the paper's processes; gamma, Weibull and ON/OFF extend the taxonomy
// toward the bursty session traffic production fleets see.
const (
	ArrivalPoisson = "poisson"
	ArrivalFixed   = "fixed"
	ArrivalGamma   = "gamma"
	ArrivalWeibull = "weibull"
	ArrivalOnOff   = "onoff"
)

// ArrivalConfig is a declarative arrival-process description: a process
// name plus its shape parameters. The zero value selects Poisson
// arrivals, the historical default.
type ArrivalConfig struct {
	// Process names the inter-arrival model (Arrival* constants;
	// "" = poisson).
	Process string
	// CV is the gamma process's coefficient of variation of inter-arrival
	// times: >1 bursty, <1 regular, 1 = Poisson.
	CV float64
	// Shape is the Weibull shape parameter k: <1 heavy-tailed bursts,
	// >1 near-deterministic pacing, 1 = Poisson.
	Shape float64
	// OnMean / OffMean are the ON/OFF user-state machine's mean state
	// durations. During ON the user emits Poisson arrivals at a burst
	// rate inflated so the long-run average matches the nominal rate;
	// during OFF the user is silent (think time between sessions).
	OnMean, OffMean time.Duration
}

// process resolves the default.
func (c ArrivalConfig) process() string {
	if c.Process == "" {
		return ArrivalPoisson
	}
	return c.Process
}

// Validate reports configuration errors without needing a rate, so spec
// loaders can fail fast before a generator exists.
func (c ArrivalConfig) Validate() error {
	switch c.process() {
	case ArrivalPoisson, ArrivalFixed:
	case ArrivalGamma:
		if c.CV <= 0 || math.IsNaN(c.CV) || math.IsInf(c.CV, 0) {
			return fmt.Errorf("workload: gamma arrivals need cv > 0, got %v", c.CV)
		}
	case ArrivalWeibull:
		if err := checkWeibullShape(c.Shape); err != nil {
			return err
		}
	case ArrivalOnOff:
		if c.OnMean <= 0 || c.OffMean <= 0 {
			return fmt.Errorf("workload: onoff arrivals need positive on/off means, got %v/%v", c.OnMean, c.OffMean)
		}
	default:
		return fmt.Errorf("workload: unknown arrival process %q (want %s|%s|%s|%s|%s)",
			c.Process, ArrivalPoisson, ArrivalFixed, ArrivalGamma, ArrivalWeibull, ArrivalOnOff)
	}
	return nil
}

// New builds the configured inter-arrival source at the given nominal
// rate (QPS), drawing from stream. A Poisson source draws its gaps a
// chunk ahead (NewExponentialArrivals), so stream must be its alone; the
// gamma, Weibull and ON/OFF sources draw once or more per gap, when
// Next asks.
func (c ArrivalConfig) New(rate float64, stream *rng.Stream) (Interarrival, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	switch c.process() {
	case ArrivalPoisson:
		return NewExponentialArrivals(rate, stream)
	case ArrivalFixed:
		return NewFixedArrivals(rate)
	case ArrivalGamma:
		return NewGammaArrivals(rate, c.CV, stream)
	case ArrivalWeibull:
		return NewWeibullArrivals(rate, c.Shape, stream)
	default: // ArrivalOnOff, per Validate
		return NewOnOffArrivals(rate, c.OnMean, c.OffMean, stream)
	}
}

// gammaArrivals draws gamma-distributed inter-arrival gaps with mean
// 1/rate and the given coefficient of variation: shape k = 1/cv²,
// scale θ = cv²/rate, so E = kθ = 1/rate and CV = 1/√k = cv. cv > 1
// clusters requests into bursts (temporary overloads at constant average
// load); cv = 1 degenerates to Poisson.
type gammaArrivals struct {
	rate, shape, scale float64
	stream             *rng.Stream
}

// NewGammaArrivals returns gamma inter-arrivals at the given rate (QPS)
// with the given coefficient of variation.
func NewGammaArrivals(rate, cv float64, stream *rng.Stream) (Interarrival, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	if cv <= 0 || math.IsNaN(cv) || math.IsInf(cv, 0) {
		return nil, fmt.Errorf("workload: gamma arrivals need cv > 0, got %v", cv)
	}
	return &gammaArrivals{rate: rate, shape: 1 / (cv * cv), scale: cv * cv / rate, stream: stream}, nil
}

func (g *gammaArrivals) Next() time.Duration {
	return time.Duration(g.stream.Gamma(g.shape, g.scale) * float64(time.Second))
}

func (g *gammaArrivals) Rate() float64 { return g.rate }

// weibullArrivals draws Weibull inter-arrival gaps with mean 1/rate and
// the given shape k: scale λ = 1/(rate·Γ(1+1/k)). k < 1 is heavy-tailed
// (long silences separating clusters), k > 1 approaches fixed pacing.
type weibullArrivals struct {
	rate, shape, scale float64
	stream             *rng.Stream
}

// NewWeibullArrivals returns Weibull inter-arrivals at the given rate
// (QPS) with the given shape parameter.
func NewWeibullArrivals(rate, shape float64, stream *rng.Stream) (Interarrival, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	if err := checkWeibullShape(shape); err != nil {
		return nil, err
	}
	scale := 1 / (rate * math.Gamma(1+1/shape))
	if scale == 0 {
		return nil, fmt.Errorf("workload: weibull arrivals at rate %v with shape %v overflow: rate·Γ(1+1/shape) is not finite", rate, shape)
	}
	return &weibullArrivals{rate: rate, shape: shape, scale: scale, stream: stream}, nil
}

// checkWeibullShape rejects a shape k that is not positive and finite, or
// so small that Γ(1+1/k), which sets the mean gap, overflows (below about
// 1/170.6): the scale would then be 0, which rng.Weibull rejects.
func checkWeibullShape(k float64) error {
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return fmt.Errorf("workload: weibull arrivals need shape > 0, got %v", k)
	}
	if math.IsInf(math.Gamma(1+1/k), 0) {
		return fmt.Errorf("workload: weibull shape %v is too small: Γ(1+1/shape) overflows", k)
	}
	return nil
}

func (w *weibullArrivals) Next() time.Duration {
	return time.Duration(w.stream.Weibull(w.shape, w.scale) * float64(time.Second))
}

func (w *weibullArrivals) Rate() float64 { return w.rate }

// onOffArrivals is a two-state user session machine: exponentially
// distributed ON periods during which requests arrive as a Poisson
// burst, separated by exponentially distributed silent OFF periods. The
// burst rate is inflated by (on+off)/on so the long-run average rate is
// the nominal one — the aggregate load matches a plain Poisson source,
// but arrivals cluster into sessions.
type onOffArrivals struct {
	rate      float64
	burstRate float64 // arrivals/second while ON
	onRate    float64 // 1/mean ON duration (per second)
	offRate   float64 // 1/mean OFF duration (per second)
	stream    *rng.Stream

	remainingOn float64 // seconds left in the current ON period
}

// NewOnOffArrivals returns ON/OFF session arrivals averaging the given
// rate (QPS), with exponential ON and OFF periods of the given means.
func NewOnOffArrivals(rate float64, onMean, offMean time.Duration, stream *rng.Stream) (Interarrival, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	if onMean <= 0 || offMean <= 0 {
		return nil, fmt.Errorf("workload: onoff arrivals need positive on/off means, got %v/%v", onMean, offMean)
	}
	on, off := onMean.Seconds(), offMean.Seconds()
	o := &onOffArrivals{
		rate:      rate,
		burstRate: rate * (on + off) / on,
		onRate:    1 / on,
		offRate:   1 / off,
		stream:    stream,
	}
	// The machine starts mid-ON so the first session is already live.
	o.remainingOn = o.stream.Exp(o.onRate)
	return o, nil
}

func (o *onOffArrivals) Next() time.Duration {
	gap := 0.0
	for {
		g := o.stream.Exp(o.burstRate)
		if g <= o.remainingOn {
			o.remainingOn -= g
			gap += g
			return time.Duration(gap * float64(time.Second))
		}
		// The session ends before the next arrival: skip to the end of
		// the OFF period and start a new ON period. The memoryless burst
		// process restarts with a fresh draw.
		gap += o.remainingOn + o.stream.Exp(o.offRate)
		o.remainingOn = o.stream.Exp(o.onRate)
	}
}

func (o *onOffArrivals) Rate() float64 { return o.rate }
