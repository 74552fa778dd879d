// Package experiment is the repetition harness of the paper's methodology
// (§IV): it runs a scenario — one service, one client configuration, one
// server configuration, one load point — for N independent runs with the
// environment reset in between, and reduces the per-run samples with the
// statistics of §III (non-parametric CIs, normality tests, repetition
// estimators).
package experiment

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/envpool"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/services"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Service identifies a benchmark.
type Service string

// The paper's four benchmarks (§IV-B).
const (
	ServiceMemcached Service = "memcached"
	ServiceHDSearch  Service = "hdsearch"
	ServiceSocialNet Service = "socialnet"
	ServiceSynthetic Service = "synthetic"
)

// Scenario is one experimental configuration point.
type Scenario struct {
	Service Service
	// Label names the configuration in tables ("LP-SMToff" etc.).
	Label string
	// Client and Server are the hardware configurations under test.
	Client hw.Config
	Server hw.Config
	// RateQPS is the offered load.
	RateQPS float64
	// Runs is the repetition count (paper: 50; 20 for the synthetic study).
	Runs int
	// TargetSamples is the post-warmup request count to collect per run;
	// it sets the virtual run duration (the paper uses fixed 2-minute
	// runs; we size runs by sample count to keep simulation time
	// proportionate across rates).
	TargetSamples int
	// Duration, when positive, fixes the post-warmup measurement window
	// in virtual time instead of deriving it from TargetSamples — the
	// natural sizing for phase programs, whose shape is a time axis, not
	// a sample count. TargetSamples (or its per-service default scaled by
	// the duration) still steers the sample-mode choice.
	Duration time.Duration
	// Classes is the workload mix: client classes splitting RateQPS by
	// fraction, each with its own arrival process, think time and size
	// distribution. Empty keeps the paper's single-Poisson client.
	Classes []loadgen.ClassConfig
	// Phases is the load program modulating RateQPS over virtual time
	// (baseline → intervention → recovery, diurnal ramps). Empty holds
	// the rate constant.
	Phases []loadgen.PhaseConfig
	// PhasesRepeat loops the phase program for the whole run.
	PhasesRepeat bool
	// SynthDelay is the added busy-wait for the synthetic service. It
	// must not be negative, and Validate rejects it on any other service.
	SynthDelay time.Duration
	// Point selects where latency is timestamped (default: in-app, the
	// design of every generator the paper studies).
	Point core.MeasurementPoint
	// Seed derives all randomness; same seed ⇒ identical results.
	Seed uint64
	// Workers caps how many repetitions execute concurrently. 0 or 1 runs
	// sequentially; negative selects runtime.GOMAXPROCS(0). Every run
	// draws from its own labeled RNG stream and executes on a private
	// environment (its worker's service + client machines), so the Result
	// is identical for any worker count.
	Workers int
	// SampleMode selects the per-run measurement reduction (package
	// metrics): SampleExact retains every post-warmup sample (the
	// reference behaviour), SampleStreaming reduces online in O(1)
	// memory per run, and SampleAuto — the default — picks streaming
	// when the per-run sample target exceeds StreamingThreshold.
	SampleMode metrics.Mode
	// StreamingThreshold is the per-run sample count above which
	// SampleAuto switches to streaming; 0 selects
	// DefaultStreamingThreshold.
	StreamingThreshold int
	// Replicas runs the backend as a cluster.ReplicaSet of this many
	// identical instances behind Router. 0 or 1 (with no Autoscale)
	// selects the legacy single-backend path, which stays byte-identical
	// to pre-cluster results.
	Replicas int
	// Router is the cluster routing policy (cluster.Router* names;
	// empty = round-robin). Ignored on the single-backend path.
	Router string
	// Autoscale enables the cluster's control loop. The replica capacity
	// is max(Replicas, Autoscale.Max); Replicas (default Autoscale.Min)
	// is the active count at the start of each run.
	Autoscale *cluster.AutoscalerConfig
	// Shards partitions each run's simulation across this many
	// conservatively-synchronized engines (package sim), cutting
	// wall-clock on multi-core hosts. Runs match the single-engine path
	// at the tested scales, not at every scale (loadgen.Config.Shards).
	// 0 selects the legacy single-engine run; 1 runs the sharded path on
	// one engine. Sharding composes with Workers: each repetition worker
	// drives its own shard set. Any positive count is incompatible with
	// Autoscale and with non-consistent-hash routers (stateful routing
	// cannot be decided at send time).
	Shards int
	// Faults is the run's deterministic fault plan: replica crash windows,
	// degraded-replica stragglers, link degradation. Nil or empty injects
	// nothing. Fault plans require a clustered backend (Replicas ≥ 2) —
	// crashing the only backend is a run with no service. Windows are
	// fractions of the run horizon, so one plan scales across rates.
	Faults *faults.Plan
	// Resilience is the client-side fault handling: per-request timeouts,
	// bounded retries with decorrelated-jitter backoff, optional hedging.
	// Nil (or a zero Timeout) keeps the legacy fire-and-forget client,
	// whose hot path stays allocation-free and byte-identical.
	Resilience *loadgen.ResilienceConfig
	// HiccupRate / HiccupMean tune the server tiers' background-
	// interference hiccup model (occurrences per second / mean stall).
	// Zero keeps each tier's built-in default; the fields exist so fault
	// studies can amplify or silence the baseline jitter. HiccupRate is
	// at most MaxRateQPS.
	HiccupRate float64
	HiccupMean time.Duration
}

// Clustered reports whether the scenario runs on the cluster path (a
// ReplicaSet wrapping the backend) rather than the legacy single-backend
// path.
func (s Scenario) Clustered() bool { return s.Replicas > 1 || s.Autoscale != nil }

// DefaultStreamingThreshold is the per-run sample target above which
// SampleAuto selects the streaming reduction. Below it, a run's raw
// slice costs at most a few MB and keeping exact samples (and exact
// quantiles) is the better trade; above it, retained memory would grow
// past what long runs can afford.
const DefaultStreamingThreshold = 200_000

// MaxRateQPS is the highest offered load a scenario accepts. Above it
// the mean gap between requests is shorter than the virtual clock's
// 1 ns tick, so requests pile up at one instant instead of arriving.
// It bounds HiccupRate for the same reason.
const MaxRateQPS = 1e9

// EffectiveSampleMode resolves SampleAuto against the scenario's sample
// target: the mode the runs will actually use.
func (s Scenario) EffectiveSampleMode() metrics.Mode {
	switch s.SampleMode {
	case metrics.SampleExact, metrics.SampleStreaming:
		return s.SampleMode
	}
	threshold := s.StreamingThreshold
	if threshold <= 0 {
		threshold = DefaultStreamingThreshold
	}
	if s.targetSamples() > threshold {
		return metrics.SampleStreaming
	}
	return metrics.SampleExact
}

// sampleFactory returns the per-run recorder factory for the resolved
// sample mode.
func (s Scenario) sampleFactory() metrics.Factory {
	if s.EffectiveSampleMode() == metrics.SampleStreaming {
		return metrics.StreamingFactory(metrics.StreamingConfig{})
	}
	return metrics.ExactFactory
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	switch s.Service {
	case ServiceMemcached, ServiceHDSearch, ServiceSocialNet, ServiceSynthetic:
	default:
		return fmt.Errorf("experiment: unknown service %q", s.Service)
	}
	if !(s.RateQPS > 0) || s.RateQPS > MaxRateQPS { // NaN fails the first test, +Inf the second
		return fmt.Errorf("experiment: rate must be positive, finite and at most %g QPS, got %v", MaxRateQPS, s.RateQPS)
	}
	warmup, total := s.runTiming()
	if total <= 0 {
		if s.Duration > 0 {
			return fmt.Errorf("experiment: duration %v and its warm-up run longer than %v", s.Duration, time.Duration(math.MaxInt64))
		}
		return fmt.Errorf("experiment: rate %v QPS makes a %d-sample run longer than %v", s.RateQPS, s.targetSamples(), time.Duration(math.MaxInt64))
	}
	// Each client thread offers RateQPS/threads and starts at a random
	// phase within its first mean gap, so a window shorter than that gap
	// would put first sends past the run, or past what time.Duration
	// holds.
	expected := float64(s.targetSamples())
	if s.Duration > 0 {
		expected = s.RateQPS * s.Duration.Seconds()
	}
	machines, threadsPerMachine := s.clientDeployment()
	threads := machines * threadsPerMachine
	if expected < float64(threads) {
		return fmt.Errorf("experiment: rate %v QPS expects %.3g requests in the %v measurement window, fewer than one for each of its %d client threads",
			s.RateQPS, expected, total-warmup, threads)
	}
	if s.Runs < 1 {
		return fmt.Errorf("experiment: need ≥1 run, got %d", s.Runs)
	}
	if s.SynthDelay < 0 {
		return fmt.Errorf("experiment: negative synthetic delay %v", s.SynthDelay)
	}
	if s.SynthDelay > 0 && s.Service != ServiceSynthetic {
		return fmt.Errorf("experiment: synthetic delay %v set on the %s service; it only applies to %s", s.SynthDelay, s.Service, ServiceSynthetic)
	}
	if s.Duration < 0 {
		return fmt.Errorf("experiment: negative duration %v", s.Duration)
	}
	if err := loadgen.ValidateClasses(s.Classes); err != nil {
		return err
	}
	// A class's arrival source is built at its per-thread rate when the
	// run starts, and a Weibull source fails there if rate·Γ(1+1/k)
	// overflows. Check each class at that rate here instead.
	perThreadRate := s.RateQPS / float64(threads)
	for _, c := range s.Classes {
		if err := c.Arrival.ValidateAt(perThreadRate * c.Fraction); err != nil {
			return fmt.Errorf("experiment: class %q at its per-thread rate of %g QPS: %w", c.Name, perThreadRate*c.Fraction, err)
		}
	}
	if err := loadgen.ValidatePhases(s.Phases); err != nil {
		return err
	}
	// The same holds for the smallest share of its rate that a thread
	// ever offers: the rarest class's first send and gaps, and every gap
	// a slow phase stretches, must fit the window as well.
	if share, source := s.smallestShare(); expected*share < float64(threads) {
		return fmt.Errorf("experiment: %s offers %.3g of rate %v QPS, %.3g requests in the %v measurement window, fewer than one for each of its %d client threads",
			source, share, s.RateQPS, expected*share, total-warmup, threads)
	}
	if s.PhasesRepeat && len(s.Phases) == 0 {
		return fmt.Errorf("experiment: phases repeat set without phases")
	}
	if s.Replicas < 0 {
		return fmt.Errorf("experiment: negative replica count %d", s.Replicas)
	}
	if s.Router != "" {
		if _, err := cluster.NewRouter(s.Router); err != nil {
			return err
		}
	}
	if s.Autoscale != nil {
		if err := s.Autoscale.Validate(); err != nil {
			return err
		}
		if s.Replicas != 0 && (s.Replicas < s.Autoscale.Min || s.Replicas > s.Autoscale.Max) {
			return fmt.Errorf("experiment: %d replicas outside autoscaler bounds [%d, %d]",
				s.Replicas, s.Autoscale.Min, s.Autoscale.Max)
		}
	}
	if s.Shards < 0 {
		return fmt.Errorf("experiment: negative shard count %d", s.Shards)
	}
	if s.Shards > 0 {
		if s.Autoscale != nil {
			return fmt.Errorf("experiment: autoscaling cannot run sharded")
		}
		if s.Clustered() {
			router := s.Router
			if router == "" {
				router = cluster.RouterRoundRobin
			}
			if router != cluster.RouterConsistentHash {
				return fmt.Errorf("experiment: router %q cannot run sharded (stateful pick); use %q",
					router, cluster.RouterConsistentHash)
			}
		}
		if p := s.shardPartitions(); s.Shards > p {
			return fmt.Errorf("experiment: %d shards exceed the %d machine+replica partitions", s.Shards, p)
		}
	}
	// A tier draws the gap to its next hiccup in seconds and truncates it
	// to the clock's 1 ns tick, so above MaxRateQPS the mean gap is 0 and
	// each hiccup queues another at the same instant: the run never
	// leaves t = 0.
	if !(s.HiccupRate >= 0) || s.HiccupRate > MaxRateQPS { // NaN fails the first test, +Inf the second
		return fmt.Errorf("experiment: hiccup rate must be non-negative, finite and at most %g per second, got %v", MaxRateQPS, s.HiccupRate)
	}
	if s.HiccupMean < 0 {
		return fmt.Errorf("experiment: negative hiccup mean duration %v", s.HiccupMean)
	}
	if s.Resilience != nil {
		if err := s.Resilience.Validate(); err != nil {
			return err
		}
		if s.Resilience.Hedge > 0 && s.Clustered() {
			router := s.Router
			if router == "" {
				router = cluster.RouterRoundRobin
			}
			if router != cluster.RouterConsistentHash {
				return fmt.Errorf("experiment: hedged requests on a cluster require the %q router (hedges must preview their primary's route)", cluster.RouterConsistentHash)
			}
		}
	}
	if !s.Faults.Empty() {
		capacity, _ := s.clusterShape()
		if err := s.Faults.Validate(capacity); err != nil {
			return err
		}
		if s.Faults.MaxLoss() > 0 && (s.Resilience == nil || !s.Resilience.Enabled()) {
			return fmt.Errorf("experiment: link loss faults require a request timeout (lost requests never complete)")
		}
	}
	return nil
}

// clientDeployment is the service's client deployment that
// generatorConfig builds: one machine of two generator threads for
// HDSearch and SocialNet, four machines of one thread for the
// mutilate-style Memcached and Synthetic.
func (s Scenario) clientDeployment() (machines, threadsPerMachine int) {
	if s.Service == ServiceHDSearch || s.Service == ServiceSocialNet {
		return 1, 2
	}
	return 4, 1
}

// smallestShare returns the smallest share of its rate that a client
// thread ever offers, the smallest class fraction times the smallest
// phase scale below 1 (a rate or an end scale), and names the class and
// phase it comes from. Without classes or slow phases the share is 1.
func (s Scenario) smallestShare() (share float64, source string) {
	fraction, scale := 1.0, 1.0
	var class, phase string
	for _, c := range s.Classes {
		if c.Fraction < fraction {
			fraction, class = c.Fraction, fmt.Sprintf("class %q (fraction %g)", c.Name, c.Fraction)
		}
	}
	for _, p := range s.Phases {
		for _, v := range []float64{p.RateScale, p.EndScale} {
			if v > 0 && v < scale {
				scale, phase = v, fmt.Sprintf("phase %q (scale %g)", p.Name, v)
			}
		}
	}
	if class != "" && phase != "" {
		return fraction * scale, class + " in " + phase
	}
	return fraction * scale, class + phase
}

// shardPartitions is the scenario's shard-assignable unit count at its
// initial shape: the service's client machines plus one partition per
// backend replica, one for a bare backend. Shards above it would own no
// simulation state.
func (s Scenario) shardPartitions() int {
	machines, _ := s.clientDeployment()
	replicas := 1
	if s.Clustered() {
		_, replicas = s.clusterShape()
	}
	return machines + max(replicas, 1)
}

// clusterShape resolves the replica capacity to build and the active
// count at the start of each run.
func (s Scenario) clusterShape() (capacity, initial int) {
	if s.Autoscale != nil {
		initial = s.Replicas
		if initial == 0 {
			initial = s.Autoscale.Min
		}
		return s.Autoscale.Max, initial
	}
	return s.Replicas, s.Replicas
}

// RunMetrics are one repetition's reduced measurements.
type RunMetrics struct {
	AvgUs      float64
	P99Us      float64
	Samples    int
	SendLagUs  float64 // mean send distortion
	ClientC6   int     // deep wakes on the client
	ServerC1E  int     // C1E wakes on the server
	EnergyProx float64
	// Cluster is the run's replica-set accounting (per-replica routed
	// counts, queue depths, scale events); nil on the single-backend
	// path.
	Cluster *cluster.RunStats
	// Resilience is the run's fault-handling accounting; nil unless the
	// scenario injects faults or enables client resilience, so fault-free
	// results stay byte-identical to the pre-fault harness.
	Resilience *ResilienceMetrics
}

// ResilienceMetrics reduce one run's client-side fault handling.
type ResilienceMetrics struct {
	// Stats are the generator's raw counters (timeouts, retries, hedges,
	// failures, late drops).
	Stats loadgen.ResilienceStats
	// Availability is the fraction of settled requests that succeeded:
	// Succeeded / (Succeeded + Exhausted). 1 when nothing settled.
	Availability float64
	// ErrorRate is 1 − Availability.
	ErrorRate float64
	// RetryAmplification is attempts issued per scheduled request:
	// (Sent + Retries + Hedges) / Sent — the extra load resilience puts
	// on a faulty fleet.
	RetryAmplification float64
	// GoodputQPS is succeeded requests per virtual second over the whole
	// run (warmup included); ThroughputQPS additionally counts error
	// responses and late arrivals — the offered work that produced no
	// useful answer.
	GoodputQPS    float64
	ThroughputQPS float64
}

// reduceResilience derives the run's availability metrics from the raw
// counters.
func reduceResilience(rs loadgen.ResilienceStats, sent int, total time.Duration) *ResilienceMetrics {
	m := &ResilienceMetrics{Stats: rs, Availability: 1}
	if settled := rs.Succeeded + rs.Exhausted; settled > 0 {
		m.Availability = float64(rs.Succeeded) / float64(settled)
	}
	m.ErrorRate = 1 - m.Availability
	m.RetryAmplification = 1
	if sent > 0 {
		m.RetryAmplification = float64(sent+rs.Retries+rs.Hedges) / float64(sent)
	}
	if secs := total.Seconds(); secs > 0 {
		m.GoodputQPS = float64(rs.Succeeded) / secs
		m.ThroughputQPS = float64(rs.Succeeded+rs.Failed+rs.LateDrops) / secs
	}
	return m
}

// Result is the scenario's full outcome.
type Result struct {
	Scenario Scenario
	Runs     []RunMetrics

	// PerRunAvgUs / PerRunP99Us are the per-run reductions — the sample
	// sets the paper's statistics operate on (one sample per run, §III).
	PerRunAvgUs []float64
	PerRunP99Us []float64

	// Medians with non-parametric 95% CIs (Eqs. 1–2), as the paper plots.
	AvgCI stats.Interval
	P99CI stats.Interval

	// StdDevAvgUs is the run-to-run standard deviation of the average
	// response time — Figure 5's metric.
	StdDevAvgUs float64
}

// MedianAvgUs returns the median per-run average latency.
func (r Result) MedianAvgUs() float64 { return stats.Median(r.PerRunAvgUs) }

// MedianP99Us returns the median per-run 99th-percentile latency.
func (r Result) MedianP99Us() float64 { return stats.Median(r.PerRunP99Us) }

// defaultTargetSamples sizes runs per service. With an explicit
// Duration the count is the expected yield of that window — it no
// longer sets the run length, but the sample-mode choice still needs
// it.
func (s Scenario) targetSamples() int {
	if s.TargetSamples > 0 {
		return s.TargetSamples
	}
	if s.Duration > 0 {
		return int(s.RateQPS * s.Duration.Seconds())
	}
	switch s.Service {
	case ServiceMemcached:
		return 20_000
	case ServiceSynthetic:
		return 10_000
	case ServiceHDSearch:
		return 4_000
	case ServiceSocialNet:
		return 2_000
	}
	return 10_000
}

// runTiming derives the warmup and total duration from rate and samples
// (or directly from an explicit Duration). A total that time.Duration
// cannot hold comes back as 0, which Validate rejects.
func (s Scenario) runTiming() (warmup, total time.Duration) {
	measure := s.Duration
	if measure <= 0 {
		ns := float64(s.targetSamples()) / s.RateQPS * float64(time.Second)
		if !(ns < math.MaxInt64) {
			return 0, 0
		}
		measure = time.Duration(ns)
	}
	warmup = measure / 10
	if warmup < 30*time.Millisecond {
		warmup = 30 * time.Millisecond
	}
	if measure > math.MaxInt64-warmup {
		return 0, 0
	}
	return warmup, warmup + measure
}

// buildBackend constructs the service under the scenario's server
// config: a bare instance on the legacy path, a cluster.ReplicaSet of
// identical instances on the cluster path. Replicated Memcached is
// near-free to build — every instance forks the one shared preload
// snapshot.
func (s Scenario) buildBackend() (services.Backend, error) {
	if !s.Clustered() {
		return s.buildInstance()
	}
	capacity, initial := s.clusterShape()
	replicas := make([]services.Backend, capacity)
	for i := range replicas {
		b, err := s.buildInstance()
		if err != nil {
			return nil, err
		}
		replicas[i] = b
	}
	router, err := cluster.NewRouter(s.Router)
	if err != nil {
		return nil, err
	}
	rs, err := cluster.New(replicas, initial, router, s.Autoscale)
	if err != nil {
		return nil, err
	}
	rs.InstallFaults(s.Faults)
	return rs, nil
}

// buildInstance constructs one backend instance.
func (s Scenario) buildInstance() (services.Backend, error) {
	switch s.Service {
	case ServiceMemcached:
		cfg := services.DefaultMemcachedConfig()
		cfg.ServerHW = s.Server
		cfg.HiccupRate, cfg.HiccupMean = s.HiccupRate, s.HiccupMean
		return services.NewMemcached(cfg)
	case ServiceHDSearch:
		cfg := services.DefaultHDSearchConfig()
		cfg.ServerHW = s.Server
		cfg.HiccupRate, cfg.HiccupMean = s.HiccupRate, s.HiccupMean
		return services.NewHDSearch(cfg)
	case ServiceSocialNet:
		cfg := services.DefaultSocialNetConfig()
		cfg.ServerHW = s.Server
		cfg.HiccupRate, cfg.HiccupMean = s.HiccupRate, s.HiccupMean
		return services.NewSocialNet(cfg)
	case ServiceSynthetic:
		cfg := services.DefaultSyntheticConfig()
		cfg.ServerHW = s.Server
		cfg.Delay = s.SynthDelay
		cfg.HiccupRate, cfg.HiccupMean = s.HiccupRate, s.HiccupMean
		return services.NewSynthetic(cfg)
	}
	return nil, fmt.Errorf("experiment: unknown service %q", s.Service)
}

// generatorConfig assembles the paper's per-service client deployment.
// A clustered backend contributes its primary replica's workload
// accessors — replicas are identical by construction.
func (s Scenario) generatorConfig(backend services.Backend, warmup time.Duration) loadgen.Config {
	if rs, ok := backend.(*cluster.ReplicaSet); ok {
		backend = rs.Primary()
	}
	cfg := loadgen.Config{
		RateQPS:      s.RateQPS,
		ClientHW:     s.Client,
		Warmup:       warmup,
		Net:          netmodel.DefaultConfig(),
		Point:        s.Point,
		Recorders:    s.sampleFactory(),
		Classes:      s.Classes,
		Phases:       s.Phases,
		PhasesRepeat: s.PhasesRepeat,
		Shards:       s.Shards,
	}
	cfg.Machines, cfg.ThreadsPerMachine = s.clientDeployment()
	if s.Resilience != nil {
		cfg.Resilience = *s.Resilience
	}
	if s.Faults.HasLink() {
		cfg.LinkFaults = s.Faults.Link
	}
	switch b := backend.(type) {
	case *services.Memcached:
		// Mutilate: 4 client machines, 160 connections, block-wait
		// time-sensitive pacing (§IV-B).
		cfg.ConnsPerThread = 40
		cfg.TimeSensitive = true
		etcCfg := b.ETCConfig()
		cfg.Payloads = func(stream *rng.Stream) loadgen.PayloadSource {
			etc, err := workload.NewETC(etcCfg, stream)
			if err != nil {
				panic(err) // validated config cannot fail
			}
			return etcSource{etc}
		}
	case *services.HDSearch:
		// MicroSuite client: one machine, busy-wait time-insensitive
		// pacing with Poisson arrivals (§IV-B).
		cfg.ConnsPerThread = 8
		cfg.TimeSensitive = false
		cfg.Payloads = func(stream *rng.Stream) loadgen.PayloadSource {
			return querySource{h: b, stream: stream}
		}
	case *services.SocialNet:
		// wrk2: one machine, 20 connections, block-wait exponential
		// pacing, read-user-timeline only (§IV-B).
		cfg.ConnsPerThread = 10
		cfg.TimeSensitive = true
		cfg.Payloads = func(stream *rng.Stream) loadgen.PayloadSource {
			return fixedSource{bytes: 180}
		}
	case *services.Synthetic:
		// Same mutilate-style deployment as Memcached.
		cfg.ConnsPerThread = 40
		cfg.TimeSensitive = true
		cfg.Payloads = func(stream *rng.Stream) loadgen.PayloadSource {
			return fixedSource{bytes: 64}
		}
	}
	return cfg
}

// Payload adapters.

type etcSource struct{ etc *workload.ETC }

func (s etcSource) Next() (any, int) {
	req, size := s.NextKV()
	return req, size
}

// NextKV implements loadgen.KVPayloadSource: the same draw as Next with
// the body returned by value, so the generator stores it inline in the
// pooled request, which makes issuing a Memcached request
// allocation-free. A request is 40 B of header and a KeyBytes key, plus
// a SET's value.
func (s etcSource) NextKV() (workload.KVRequest, int) {
	req := s.etc.Next()
	size := 40 + workload.KeyBytes
	if req.Op == workload.OpSet {
		size += req.ValueSize
	}
	return req, size
}

type querySource struct {
	h      *services.HDSearch
	stream *rng.Stream
}

func (s querySource) Next() (any, int) {
	q := s.h.NewQuery(s.stream)
	return q, len(q) * 8
}

type fixedSource struct{ bytes int }

func (s fixedSource) Next() (any, int) { return struct{}{}, s.bytes }

// Run executes the scenario: Runs independent repetitions, each on a fresh
// environment, reduced per the paper's statistics. Repetitions are
// dispatched through the sched worker pool (Scenario.Workers wide); each
// worker owns a private backend and generator, and every repetition's
// randomness comes from its own labeled stream, so the Result is
// byte-identical whether the runs execute sequentially or in parallel.
func Run(s Scenario) (Result, error) { return RunContext(context.Background(), s) }

// backendKey is the scenario's envpool leasing key: everything a backend
// is built from, nothing it is blind to.
func (s Scenario) backendKey() envpool.Key {
	key := envpool.Key{
		Service: string(s.Service), Server: s.Server, SynthDelay: s.SynthDelay,
		Faults: s.Faults.Fingerprint(), HiccupRate: s.HiccupRate, HiccupMean: s.HiccupMean,
	}
	if s.Clustered() {
		capacity, initial := s.clusterShape()
		router := s.Router
		if router == "" {
			router = cluster.RouterRoundRobin
		}
		key.Cluster = fmt.Sprintf("%d/%d/%s", capacity, initial, router)
		if s.Autoscale != nil {
			key.Cluster += fmt.Sprintf("/auto:%+v", *s.Autoscale)
		}
	}
	return key
}

// RunContext is Run under a context. Cancellation stops the repetitions
// promptly; in addition, envpool resources carried by the context are
// honoured:
//
//   - A worker budget (sched.WithBudget) caps how many repetitions
//     actually execute at once, shared with every other pool under the
//     same budget — nested sweep×scenario fan-out stays within one
//     global "-parallel N" bound. With Workers == 0 under a budget the
//     scenario inherits the budget's width instead of running
//     sequentially (the budget already bounds real concurrency).
//   - A backend pool (envpool.WithPool) supplies the workers' backends,
//     client machines and engine sets: idle instances with this
//     scenario's keys are leased instead of rebuilt, and every lease is
//     returned when the scenario finishes. Without one, the workers
//     lease from a private pool, so each builds its own.
//
// Neither resource affects the Result — leased instances are fully
// reset per run and the budget only schedules — so the byte-identical
// guarantee is unchanged.
func RunContext(ctx context.Context, s Scenario) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	warmup, total := s.runTiming()

	backends := envpool.From(ctx)
	if backends == nil {
		backends = envpool.New()
	}
	key := s.backendKey()
	// releases returns every lease the scenario's workers took, when the
	// scenario ends.
	var (
		leaseMu  sync.Mutex
		releases []func()
	)
	held := func(release func()) {
		leaseMu.Lock()
		releases = append(releases, release)
		leaseMu.Unlock()
	}
	defer func() {
		leaseMu.Lock()
		defer leaseMu.Unlock()
		for _, release := range releases {
			release()
		}
	}()

	// Each worker owns one generator for all the repetitions it executes,
	// so the generator's simulation engines and request free lists are
	// reused run over run: after the worker's first repetition,
	// steady-state simulation allocates nothing. Reuse is invisible to
	// results (the engine resets fully; pooled requests are zeroed), which
	// the byte-identical-for-every-worker-count tests pin.
	newWorker := func(int) (*loadgen.Generator, error) {
		backend, err := backends.Lease(key, s.buildBackend)
		if err != nil {
			return nil, err
		}
		held(func() { backends.Release(key, backend) })
		// Lease the worker's client machines and engine set alongside its
		// backend: scenarios sharing a client configuration reuse machine
		// sets, and scenarios sharing an engine shape reuse engine sets,
		// instead of rebuilding them per sweep cell or benchmark
		// repetition. Both are fully reset per run, so reuse never changes
		// results.
		genCfg := s.generatorConfig(backend, warmup)
		count, cores := genCfg.MachineSpec()
		mkey := envpool.MachineKey{Client: genCfg.ClientHW, Machines: count, Cores: cores}
		machines, err := backends.LeaseMachines(mkey, func() ([]*hw.Machine, error) {
			return loadgen.BuildMachines(genCfg)
		})
		if err != nil {
			return nil, err
		}
		held(func() { backends.ReleaseMachines(mkey, machines) })
		shards, lookahead := genCfg.EngineSpec()
		ekey := envpool.EngineKey{Shards: shards, Lookahead: lookahead}
		engines, err := backends.LeaseEngines(ekey, func() (*loadgen.Engines, error) {
			return loadgen.NewEngines(shards, lookahead)
		})
		if err != nil {
			return nil, err
		}
		held(func() { backends.ReleaseEngines(ekey, engines) })
		return loadgen.NewLeased(genCfg, backend, machines, engines)
	}

	workers := sched.Resolve(s.Workers)
	if b := sched.BudgetFrom(ctx); b != nil && s.Workers == 0 {
		workers = b.Capacity()
		if s.Shards > 1 {
			// A sharded repetition runs Shards engine goroutines, not
			// one, so an inherited budget width is divided by the shard
			// count to keep "-parallel N" an honest bound on live
			// simulation goroutines.
			if workers = workers / s.Shards; workers < 1 {
				workers = 1
			}
		}
	}
	pool := sched.Pool{Workers: workers}
	runs, err := sched.MapWorkers(ctx, pool, s.Runs, newWorker,
		func(_ context.Context, gen *loadgen.Generator, run int) (RunMetrics, error) {
			stream := rng.NewLabeled(s.Seed, fmt.Sprintf("%s/%s/%.0f/run%d", s.Service, s.Label, s.RateQPS, run))
			rr, err := gen.RunOnce(stream, total)
			if err != nil {
				return RunMetrics{}, fmt.Errorf("experiment: run %d: %w", run, err)
			}
			if rr.Latency.N == 0 {
				return RunMetrics{}, fmt.Errorf("experiment: run %d collected no samples", run)
			}
			m := RunMetrics{
				AvgUs:      rr.Latency.Mean,
				P99Us:      rr.Latency.P99,
				Samples:    rr.Latency.N,
				SendLagUs:  rr.SendLag.Mean,
				ClientC6:   rr.ClientWakes["C6"],
				ServerC1E:  rr.ServerWakes["C1E"],
				EnergyProx: rr.ClientEnergyProxy,
			}
			if rs, ok := gen.Backend().(*cluster.ReplicaSet); ok {
				st := rs.Stats()
				m.Cluster = &st
			}
			if !s.Faults.Empty() || (s.Resilience != nil && s.Resilience.Enabled()) {
				m.Resilience = reduceResilience(rr.Resilience, rr.Sent, total)
			}
			return m, nil
		}, nil)
	if err != nil {
		// Run errors already carry their index.
		return Result{}, sched.Unwrap(err)
	}

	res := Result{Scenario: s, Runs: runs}
	for _, rm := range runs {
		res.PerRunAvgUs = append(res.PerRunAvgUs, rm.AvgUs)
		res.PerRunP99Us = append(res.PerRunP99Us, rm.P99Us)
	}

	res.StdDevAvgUs = stats.StdDev(res.PerRunAvgUs)
	if iv, err := stats.NonParametricCI(res.PerRunAvgUs, 0.95); err == nil {
		res.AvgCI = iv
	} else {
		res.AvgCI = stats.Interval{Point: stats.Median(res.PerRunAvgUs), Lower: stats.Min(res.PerRunAvgUs), Upper: stats.Max(res.PerRunAvgUs), Confidence: 0.95}
	}
	if iv, err := stats.NonParametricCI(res.PerRunP99Us, 0.95); err == nil {
		res.P99CI = iv
	} else {
		res.P99CI = stats.Interval{Point: stats.Median(res.PerRunP99Us), Lower: stats.Min(res.PerRunP99Us), Upper: stats.Max(res.PerRunP99Us), Confidence: 0.95}
	}
	return res, nil
}

// ServerVariant derives the server configuration for a feature study.
type ServerVariant struct {
	Name string
	Cfg  hw.Config
}

// SMTVariants returns the Fig. 2 server configurations.
func SMTVariants() []ServerVariant {
	return []ServerVariant{
		{Name: "SMToff", Cfg: hw.ServerBaselineConfig()},
		{Name: "SMTon", Cfg: hw.ServerBaselineConfig().WithSMT(true)},
	}
}

// C1EVariants returns the Fig. 3 server configurations: the baseline
// (C-states up to C1) versus C1E enabled.
func C1EVariants() []ServerVariant {
	return []ServerVariant{
		{Name: "C1Eoff", Cfg: hw.ServerBaselineConfig()},
		{Name: "C1Eon", Cfg: hw.ServerBaselineConfig().WithMaxCState("C1E")},
	}
}

// MemcachedRates is the paper's Memcached load sweep (10 K–500 K QPS).
func MemcachedRates() []float64 {
	return []float64{10_000, 50_000, 100_000, 200_000, 300_000, 400_000, 500_000}
}

// HDSearchRates is the paper's HDSearch load sweep (500–2500 QPS).
func HDSearchRates() []float64 { return []float64{500, 1000, 1500, 2000, 2500} }

// SocialNetRates is the paper's Social Network load sweep (100–600 QPS).
func SocialNetRates() []float64 { return []float64{100, 200, 300, 400, 500, 600} }

// SyntheticDelays is the paper's added-delay sweep (0–400 µs).
func SyntheticDelays() []time.Duration {
	return []time.Duration{0, 100 * time.Microsecond, 200 * time.Microsecond, 300 * time.Microsecond, 400 * time.Microsecond}
}

// SyntheticRates is the paper's synthetic QPS sweep (5 K–20 K), chosen via
// Little's law to keep concurrency under the worker count (§V-B).
func SyntheticRates() []float64 { return []float64{5_000, 10_000, 15_000, 20_000} }
