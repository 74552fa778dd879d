// Package spec defines the versioned, declarative workload-spec format:
// a YAML (or JSON) document describing one sweep — service, hardware
// configurations, rate axis, repetition counts — plus the workload-mix
// vocabulary the generator understands: client classes with per-class
// arrival processes (poisson, fixed, gamma, weibull, onoff), think-time
// and size distributions, multi-phase load programs driven by the
// virtual clock, and replicated/autoscaled backends.
//
// A spec compiles to the same experiment.Scenario values the built-in
// presets construct in code, so everything the harness guarantees —
// byte-identical results at any -parallel width, labeled per-run RNG
// streams — holds for spec-driven runs unchanged. Both CLIs load specs
// via -spec file.yaml; the built-in presets are re-expressed as specs
// under examples/, with golden tests pinning the parity.
//
// # Schema (version 1)
//
//	version: 1                  # required, must be 1
//	name: my-sweep              # required; names the sweep in output
//	description: one line       # optional usage/report text
//	service: memcached          # memcached|hdsearch|socialnet|synthetic
//	client: HP                  # LP|HP               (default HP)
//	server: baseline            # baseline|smt|c1e    (default baseline)
//	rates: [250000, 1000000]    # sweep axis in QPS (or "rate:" for one)
//	runs: 5                     # repetitions per rate
//	samples: 1000000            # post-warmup samples per run, or:
//	duration: 30s               # fixed measurement window instead
//	synth_delay: 100us          # synthetic service added delay
//	replicas: 4                 # cluster path: replica count
//	router: consistent-hash     # round-robin|least-outstanding|consistent-hash
//	autoscale:                  # cluster control loop (optional)
//	  min: 2
//	  max: 8
//	  interval: 10ms
//	  signal: utilization       # utilization|latency
//	  scale_up_at: 0.7
//	  scale_down_at: 0.25
//	  cooldown: 20ms
//	classes:                    # workload mix (fractions sum to 1)
//	  - name: interactive
//	    fraction: 0.7
//	    arrival: {…}            # see below
//	    think: {dist: exponential, mean: 2ms}
//	    size: {dist: lognormal, mean: 512, sigma: 0.8}
//	phases:                     # load program on the virtual clock
//	  - name: baseline
//	    duration: 100ms
//	    rate_scale: 1
//	    end_scale: 2            # optional linear ramp target
//	phases_repeat: true         # loop the program (diurnal curves)
//	faults:                     # deterministic fault plan (needs replicas ≥ 2)
//	  crashes:                  # explicit crash windows, horizon fractions
//	    - {replica: 1, start_frac: 0.35, end_frac: 0.65}
//	  stragglers:               # degraded replicas (factor ≥ 1)
//	    - {replica: 2, start_frac: 0.2, end_frac: 0.8, factor: 4}
//	  link:                     # client↔server link degradation
//	    - {start_frac: 0.4, end_frac: 0.6, delay_factor: 10, loss: 0.05}
//	  random_crashes:           # or draw windows from the run's RNG stream
//	    rate_per_sec: 0.5
//	    mean_downtime: 200ms
//	resilience:                 # client-side fault handling
//	  timeout: 2ms              # per-request timeout (enables the rest)
//	  retries: 2                # bounded retry budget
//	  retry_base: 200us         # backoff base (decorrelated jitter)
//	  retry_cap: 2ms            # backoff cap
//	  hedge: 1ms                # hedged-request delay (consistent-hash only)
//	hiccups:                    # tier background-interference override
//	  rate_per_sec: 2.4         # occurrences per second (0 = default)
//	  mean_duration: 700us      # mean stall length
//
// Arrival processes: {process: poisson} (default), {process: fixed},
// {process: gamma, cv: 3}, {process: weibull, shape: 0.6}, and
// {process: onoff, on_mean: 50ms, off_mean: 450ms}.
//
// Durations are strings in Go syntax ("250ms", "1h"). Unknown keys
// anywhere in the document are errors, as are rates ≤ 0, fractions not
// summing to 1, non-positive distribution parameters, a Weibull shape
// below about 1/170.6 or one whose class's per-thread rate times
// Γ(1+1/shape) overflows, zero-length phases, and a class fraction or phase
// scale so small that its share of the rate expects fewer requests in
// the run than the client has threads — a spec that loads is a spec
// that runs.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/workload"
)

// Version is the schema version this package reads and writes.
const Version = 1

// Duration is a time.Duration that unmarshals from Go duration strings
// ("250ms"); bare numbers are rejected as ambiguous.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	s, ok := v.(string)
	if !ok {
		return fmt.Errorf("duration must be a string like \"250ms\", got %s", b)
	}
	dur, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration %q: %w", s, err)
	}
	*d = Duration(dur)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Std returns the plain time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// ArrivalSpec selects a class's inter-arrival process.
type ArrivalSpec struct {
	Process string   `json:"process,omitempty"`
	CV      float64  `json:"cv,omitempty"`
	Shape   float64  `json:"shape,omitempty"`
	OnMean  Duration `json:"on_mean,omitempty"`
	OffMean Duration `json:"off_mean,omitempty"`
}

func (a ArrivalSpec) compile() workload.ArrivalConfig {
	return workload.ArrivalConfig{
		Process: a.Process,
		CV:      a.CV,
		Shape:   a.Shape,
		OnMean:  a.OnMean.Std(),
		OffMean: a.OffMean.Std(),
	}
}

// ThinkSpec adds per-request think time to a class.
type ThinkSpec struct {
	Dist string   `json:"dist,omitempty"`
	Mean Duration `json:"mean,omitempty"`
}

// SizeSpec overrides a class's request wire-size distribution.
type SizeSpec struct {
	Dist  string  `json:"dist,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// ClassSpec is one client class of the workload mix.
type ClassSpec struct {
	Name     string      `json:"name"`
	Fraction float64     `json:"fraction"`
	Arrival  ArrivalSpec `json:"arrival,omitempty"`
	Think    ThinkSpec   `json:"think,omitempty"`
	Size     SizeSpec    `json:"size,omitempty"`
}

func (c ClassSpec) compile() loadgen.ClassConfig {
	return loadgen.ClassConfig{
		Name:     c.Name,
		Fraction: c.Fraction,
		Arrival:  c.Arrival.compile(),
		Think:    loadgen.ThinkConfig{Dist: c.Think.Dist, Mean: c.Think.Mean.Std()},
		Size:     loadgen.SizeConfig{Dist: c.Size.Dist, Mean: c.Size.Mean, Sigma: c.Size.Sigma},
	}
}

// PhaseSpec is one phase of the load program.
type PhaseSpec struct {
	Name      string   `json:"name,omitempty"`
	Duration  Duration `json:"duration"`
	RateScale float64  `json:"rate_scale"`
	EndScale  float64  `json:"end_scale,omitempty"`
}

func (p PhaseSpec) compile() loadgen.PhaseConfig {
	return loadgen.PhaseConfig{
		Name:      p.Name,
		Duration:  p.Duration.Std(),
		RateScale: p.RateScale,
		EndScale:  p.EndScale,
	}
}

// AutoscaleSpec configures the cluster's scaling loop.
type AutoscaleSpec struct {
	Min         int      `json:"min"`
	Max         int      `json:"max"`
	Interval    Duration `json:"interval,omitempty"`
	Signal      string   `json:"signal,omitempty"`
	ScaleUpAt   float64  `json:"scale_up_at,omitempty"`
	ScaleDownAt float64  `json:"scale_down_at,omitempty"`
	Cooldown    Duration `json:"cooldown,omitempty"`
}

func (a *AutoscaleSpec) compile() *cluster.AutoscalerConfig {
	if a == nil {
		return nil
	}
	cfg := cluster.DefaultAutoscalerConfig(a.Min, a.Max)
	if a.Interval > 0 {
		cfg.Interval = a.Interval.Std()
	}
	if a.Signal != "" {
		cfg.Signal = cluster.Signal(a.Signal)
	}
	if a.ScaleUpAt != 0 {
		cfg.ScaleUpAt = a.ScaleUpAt
	}
	if a.ScaleDownAt != 0 {
		cfg.ScaleDownAt = a.ScaleDownAt
	}
	if a.Cooldown > 0 {
		cfg.Cooldown = a.Cooldown.Std()
	}
	return &cfg
}

// CrashSpec is one explicit replica crash window; start_frac/end_frac
// are fractions of the run horizon in [0, 1].
type CrashSpec struct {
	Replica   int     `json:"replica"`
	StartFrac float64 `json:"start_frac"`
	EndFrac   float64 `json:"end_frac"`
}

// StragglerSpec degrades one replica's service rate by factor (≥ 1)
// over a window of the run.
type StragglerSpec struct {
	Replica   int     `json:"replica"`
	StartFrac float64 `json:"start_frac"`
	EndFrac   float64 `json:"end_frac"`
	Factor    float64 `json:"factor"`
}

// LinkSpec degrades the client↔server links over a window:
// delay_factor (≥ 1) multiplies propagation delay, loss drops each
// message independently with that probability.
type LinkSpec struct {
	StartFrac   float64 `json:"start_frac"`
	EndFrac     float64 `json:"end_frac"`
	DelayFactor float64 `json:"delay_factor,omitempty"`
	Loss        float64 `json:"loss,omitempty"`
}

// RandomCrashSpec draws per-replica crash windows from the run's RNG
// stream: a Poisson process at rate_per_sec with exponential downtimes.
type RandomCrashSpec struct {
	RatePerSec   float64  `json:"rate_per_sec"`
	MeanDowntime Duration `json:"mean_downtime"`
}

// FaultsSpec is the spec's deterministic fault plan.
type FaultsSpec struct {
	Crashes       []CrashSpec      `json:"crashes,omitempty"`
	Stragglers    []StragglerSpec  `json:"stragglers,omitempty"`
	Link          []LinkSpec       `json:"link,omitempty"`
	RandomCrashes *RandomCrashSpec `json:"random_crashes,omitempty"`
}

func (f *FaultsSpec) compile() *faults.Plan {
	if f == nil {
		return nil
	}
	p := &faults.Plan{}
	for _, c := range f.Crashes {
		p.Crashes = append(p.Crashes, faults.CrashWindow{Replica: c.Replica, Start: c.StartFrac, End: c.EndFrac})
	}
	for _, w := range f.Stragglers {
		p.Stragglers = append(p.Stragglers, faults.StragglerWindow{Replica: w.Replica, Start: w.StartFrac, End: w.EndFrac, Factor: w.Factor})
	}
	for _, l := range f.Link {
		p.Link = append(p.Link, faults.LinkWindow{Start: l.StartFrac, End: l.EndFrac, DelayFactor: l.DelayFactor, Loss: l.Loss})
	}
	if f.RandomCrashes != nil {
		p.RandomCrashes = &faults.RandomCrashes{RatePerSec: f.RandomCrashes.RatePerSec, MeanDowntime: f.RandomCrashes.MeanDowntime.Std()}
	}
	return p
}

// ResilienceSpec is the client-side fault handling: a per-request
// timeout gates the whole feature; retries and hedging require it.
type ResilienceSpec struct {
	Timeout   Duration `json:"timeout"`
	Retries   int      `json:"retries,omitempty"`
	RetryBase Duration `json:"retry_base,omitempty"`
	RetryCap  Duration `json:"retry_cap,omitempty"`
	Hedge     Duration `json:"hedge,omitempty"`
}

func (r *ResilienceSpec) compile() *loadgen.ResilienceConfig {
	if r == nil {
		return nil
	}
	return &loadgen.ResilienceConfig{
		Timeout:   r.Timeout.Std(),
		Retries:   r.Retries,
		RetryBase: r.RetryBase.Std(),
		RetryCap:  r.RetryCap.Std(),
		Hedge:     r.Hedge.Std(),
	}
}

// HiccupSpec overrides the server tiers' background-interference model
// (zero fields keep each service's defaults).
type HiccupSpec struct {
	RatePerSec   float64  `json:"rate_per_sec"`
	MeanDuration Duration `json:"mean_duration,omitempty"`
}

// Spec is one workload-spec document.
type Spec struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Service     string `json:"service"`
	Client      string `json:"client,omitempty"`
	Server      string `json:"server,omitempty"`

	Rate  float64   `json:"rate,omitempty"`
	Rates []float64 `json:"rates,omitempty"`

	Runs       int      `json:"runs"`
	Samples    int      `json:"samples,omitempty"`
	Duration   Duration `json:"duration,omitempty"`
	SynthDelay Duration `json:"synth_delay,omitempty"`

	Replicas  int            `json:"replicas,omitempty"`
	Router    string         `json:"router,omitempty"`
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	Shards    int            `json:"shards,omitempty"`

	Classes      []ClassSpec `json:"classes,omitempty"`
	Phases       []PhaseSpec `json:"phases,omitempty"`
	PhasesRepeat bool        `json:"phases_repeat,omitempty"`

	Faults     *FaultsSpec     `json:"faults,omitempty"`
	Resilience *ResilienceSpec `json:"resilience,omitempty"`
	Hiccups    *HiccupSpec     `json:"hiccups,omitempty"`
}

// Load reads and validates a spec file (YAML or JSON by content).
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Parse decodes and validates one spec document. A document whose first
// significant byte is '{' is decoded as JSON; anything else goes through
// the YAML-subset parser. Unknown fields are errors either way.
func Parse(data []byte) (*Spec, error) {
	payload := data
	if !bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
		tree, err := parseYAML(data)
		if err != nil {
			return nil, err
		}
		payload, err = json.Marshal(tree)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// serverConfigs maps spec server names to hardware configurations.
func serverConfigs() map[string]hw.Config {
	return map[string]hw.Config{
		"baseline": hw.ServerBaselineConfig(),
		"smt":      hw.ServerBaselineConfig().WithSMT(true),
		"c1e":      hw.ServerBaselineConfig().WithMaxCState("C1E"),
	}
}

// clientName resolves the default.
func (s *Spec) clientName() string {
	if s.Client == "" {
		return "HP"
	}
	return s.Client
}

// serverName resolves the default.
func (s *Spec) serverName() string {
	if s.Server == "" {
		return "baseline"
	}
	return s.Server
}

// Validate checks the whole document, compiling the mix and cluster
// sections through their owning packages' validators so a spec that
// loads is guaranteed to run.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: unsupported version %d (this build reads version %d)", s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("spec: missing name")
	}
	switch experiment.Service(s.Service) {
	case experiment.ServiceMemcached, experiment.ServiceHDSearch, experiment.ServiceSocialNet, experiment.ServiceSynthetic:
	case "":
		return fmt.Errorf("spec: missing service")
	default:
		return fmt.Errorf("spec: unknown service %q (want memcached|hdsearch|socialnet|synthetic)", s.Service)
	}
	if _, ok := hw.ClientByName(s.clientName()); !ok {
		return fmt.Errorf("spec: unknown client %q (want LP|HP)", s.Client)
	}
	if _, ok := serverConfigs()[s.serverName()]; !ok {
		return fmt.Errorf("spec: unknown server %q (want baseline|smt|c1e)", s.Server)
	}
	if s.Rate != 0 && len(s.Rates) > 0 {
		return fmt.Errorf("spec: rate and rates are mutually exclusive")
	}
	rates := s.SweepRates()
	if len(rates) == 0 {
		return fmt.Errorf("spec: missing rates (or a single rate)")
	}
	for _, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("spec: rate %v must be positive and finite", r)
		}
	}
	if s.Runs < 1 {
		return fmt.Errorf("spec: runs must be ≥ 1, got %d", s.Runs)
	}
	if s.Samples < 0 {
		return fmt.Errorf("spec: negative samples %d", s.Samples)
	}
	if s.Duration < 0 {
		return fmt.Errorf("spec: negative duration %v", s.Duration.Std())
	}
	if s.Samples > 0 && s.Duration > 0 {
		return fmt.Errorf("spec: samples and duration are mutually exclusive")
	}
	if s.SynthDelay < 0 {
		return fmt.Errorf("spec: negative synth_delay %v", s.SynthDelay.Std())
	}
	if s.SynthDelay > 0 && experiment.Service(s.Service) != experiment.ServiceSynthetic {
		return fmt.Errorf("spec: synth_delay only applies to the synthetic service")
	}
	if s.Replicas < 0 {
		return fmt.Errorf("spec: negative replicas %d", s.Replicas)
	}
	if s.Router != "" {
		if _, err := cluster.NewRouter(s.Router); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if s.Replicas <= 1 && s.Autoscale == nil {
			return fmt.Errorf("spec: router %q set without replicas", s.Router)
		}
	}
	if s.Shards < 0 {
		return fmt.Errorf("spec: negative shards %d", s.Shards)
	}
	if s.PhasesRepeat && len(s.Phases) == 0 {
		return fmt.Errorf("spec: phases_repeat set without phases")
	}
	if s.Faults != nil && s.Faults.compile().Empty() {
		return fmt.Errorf("spec: faults section is empty (want crashes, stragglers, link, or random_crashes)")
	}
	if s.Hiccups != nil {
		if s.Hiccups.RatePerSec < 0 {
			return fmt.Errorf("spec: negative hiccup rate_per_sec %g", s.Hiccups.RatePerSec)
		}
		if s.Hiccups.MeanDuration < 0 {
			return fmt.Errorf("spec: negative hiccup mean_duration %v", s.Hiccups.MeanDuration.Std())
		}
	}
	// The scenario validator re-checks everything below, but compiling
	// through it here, at every rate, turns "spec loads" into "spec runs".
	for _, r := range rates {
		sc := s.Scenario(r)
		sc.Runs = 1
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	return nil
}

// SweepRates returns the rate axis (the rate shorthand normalized).
func (s *Spec) SweepRates() []float64 {
	if s.Rate != 0 {
		return []float64{s.Rate}
	}
	return s.Rates
}

// Scenario compiles the spec at one rate of its sweep, with the same
// label convention the built-in presets use.
func (s *Spec) Scenario(rate float64) experiment.Scenario {
	client, _ := hw.ClientByName(s.clientName())
	sc := experiment.Scenario{
		Service:       experiment.Service(s.Service),
		Label:         client.Name + "-" + s.Name,
		Client:        client,
		Server:        serverConfigs()[s.serverName()],
		RateQPS:       rate,
		Runs:          s.Runs,
		TargetSamples: s.Samples,
		Duration:      s.Duration.Std(),
		Classes:       compileAll(s.Classes, ClassSpec.compile),
		Phases:        compileAll(s.Phases, PhaseSpec.compile),
		PhasesRepeat:  s.PhasesRepeat,
		SynthDelay:    s.SynthDelay.Std(),
		Replicas:      s.Replicas,
		Router:        s.Router,
		Autoscale:     s.Autoscale.compile(),
		Shards:        s.Shards,
		Faults:        s.Faults.compile(),
		Resilience:    s.Resilience.compile(),
	}
	if s.Hiccups != nil {
		sc.HiccupRate = s.Hiccups.RatePerSec
		sc.HiccupMean = s.Hiccups.MeanDuration.Std()
	}
	return sc
}

// compileAll compiles each section of a list; an empty list compiles to
// nil.
func compileAll[S, C any](specs []S, compile func(S) C) []C {
	if len(specs) == 0 {
		return nil
	}
	out := make([]C, len(specs))
	for i, sp := range specs {
		out[i] = compile(sp)
	}
	return out
}
