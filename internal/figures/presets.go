package figures

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Presets are the beyond-the-paper scale scenarios the engine work
// unlocked: PR 3 removed the per-run memory ceiling (streaming
// reduction), PR 4 the allocation-rate ceiling (pooled lifecycle), and
// the timer-wheel queue removed the O(log n) scheduling term that would
// otherwise dominate exactly here — hundreds of thousands of events
// pending at once. Each preset is a rate sweep of one service with
// paper-faithful client/server configurations but run sizes the paper's
// testbed could not have afforded.
//
// Full-size presets are deliberately big (minutes of host time); both
// CLIs let -runs and -samples scale them down, which is how CI smokes
// them per commit.

// Preset is a named large-scale sweep: one scenario shape over a rate
// axis.
type Preset struct {
	// Name is the CLI spelling (repro -experiment NAME, labsim -preset NAME).
	Name string
	// Description is one line for usage text.
	Description string
	// Rates is the sweep axis.
	Rates []float64
	// Scenario is the full-size shape at every rate: service, hardware,
	// run count and sample target, fleet, faults and resilience. It
	// leaves the per-point fields zero (Label, RateQPS, Seed,
	// SampleMode, Point, Workers and StreamingThreshold), which
	// PresetScenario and the caller fill in.
	experiment.Scenario
}

// Presets returns the built-in large-scale presets.
func Presets() []Preset {
	return []Preset{
		{
			Name:        "million-qps",
			Description: "Memcached load sweep to 1M QPS (2× the paper's peak), 1M streamed samples per run",
			Rates:       []float64{250_000, 500_000, 750_000, 1_000_000},
			Scenario: experiment.Scenario{
				Service: experiment.ServiceMemcached,
				Client:  hw.HPConfig(),
				Server:  hw.ServerBaselineConfig(),
				Runs:    5,
				// 1M post-warmup samples per run: far past the streaming
				// threshold, so each run reduces in O(1) memory while the
				// wheel keeps per-event cost flat at ~10^5 pending events.
				TargetSamples: 1_000_000,
			},
		},
		{
			Name:        "cluster",
			Description: "Replicated Memcached fleet: 4 replicas behind consistent hashing, to 2M QPS offered",
			// One instance saturates near 900K QPS; the upper rates only
			// stay serviceable because the router spreads them over the
			// fleet — the scale-out table's axis.
			Rates: []float64{250_000, 500_000, 1_000_000, 2_000_000},
			Scenario: experiment.Scenario{
				Service:       experiment.ServiceMemcached,
				Client:        hw.HPConfig(),
				Server:        hw.ServerBaselineConfig(),
				Runs:          5,
				TargetSamples: 250_000,
				Replicas:      4,
				Router:        cluster.RouterConsistentHash,
			},
		},
		{
			Name:        "sharded",
			Description: "Replicated Memcached fleet across 4 sharded engines: the cluster sweep, parallelized in-run",
			Rates:       []float64{250_000, 500_000, 1_000_000, 2_000_000},
			// The cluster preset's shape — consistent hashing is the one
			// routing policy the sharded path admits (send-time routing) —
			// with each run partitioned over 4 engines: 4 client machines
			// + 4 replicas = 8 partitions, 2 per shard.
			Scenario: experiment.Scenario{
				Service:       experiment.ServiceMemcached,
				Client:        hw.HPConfig(),
				Server:        hw.ServerBaselineConfig(),
				Runs:          5,
				TargetSamples: 250_000,
				Replicas:      4,
				Router:        cluster.RouterConsistentHash,
				Shards:        4,
			},
		},
		{
			Name:        "faulty-cluster",
			Description: "Replicated Memcached fleet with a mid-run replica crash, client timeouts and bounded retries",
			Rates:       []float64{250_000, 500_000, 1_000_000},
			// The cluster preset's fleet with one replica crashed for the
			// middle third of every run. Consistent hashing keeps the run
			// shardable, so the fault path is exercised by both execution
			// modes; the resilience stack turns the dark replica's share
			// into retries against the survivors instead of lost requests.
			Scenario: experiment.Scenario{
				Service:       experiment.ServiceMemcached,
				Client:        hw.HPConfig(),
				Server:        hw.ServerBaselineConfig(),
				Runs:          5,
				TargetSamples: 250_000,
				Replicas:      4,
				Router:        cluster.RouterConsistentHash,
				Faults: &faults.Plan{
					Crashes: []faults.CrashWindow{{Replica: 1, Start: 0.35, End: 0.65}},
				},
				Resilience: &loadgen.ResilienceConfig{
					Timeout:   2 * time.Millisecond,
					Retries:   2,
					RetryBase: 200 * time.Microsecond,
					RetryCap:  2 * time.Millisecond,
				},
			},
		},
		{
			Name:        "hour-long",
			Description: "Memcached at 100K QPS for one virtual hour per run (360M samples, streamed)",
			Rates:       []float64{100_000},
			Scenario: experiment.Scenario{
				Service: experiment.ServiceMemcached,
				Client:  hw.HPConfig(),
				Server:  hw.ServerBaselineConfig(),
				Runs:    3,
				// TargetSamples sets the measurement window: samples/rate =
				// 3600 virtual seconds. Only streaming reduction makes the
				// run's memory independent of those 3.6e8 samples.
				TargetSamples: 360_000_000,
			},
		},
	}
}

// PresetByName resolves a preset by its CLI spelling.
func PresetByName(name string) (Preset, bool) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}

// PresetUsage renders one line per preset for CLI help text.
func PresetUsage() string {
	var b strings.Builder
	for _, p := range Presets() {
		fmt.Fprintf(&b, "  %-12s %s\n", p.Name, p.Description)
	}
	return strings.TrimRight(b.String(), "\n")
}

// PresetResult holds one preset sweep's outcome, rate-indexed.
type PresetResult struct {
	Preset  Preset
	Results []experiment.Result // index-aligned with Preset.Rates
}

// PresetScenario is the preset's scenario at one rate under the given
// options (SweepOptions.override), labelled by its client and preset
// name. The label names every run's random stream; an unnamed preset
// (labsim's shape flags) is labelled by its client alone.
func PresetScenario(p Preset, rate float64, opts SweepOptions) experiment.Scenario {
	sc := p.Scenario
	sc.Label = p.Client.Name
	if p.Name != "" {
		sc.Label += "-" + p.Name
	}
	sc.RateQPS = rate
	return opts.override(sc)
}

// PresetFromSpec compiles a loaded workload spec into a Preset, the
// unit both CLIs sweep. A spec re-expressing a built-in preset compiles
// to a Preset equal to the built-in one — the parity the golden tests
// pin — so -spec is a superset of -experiment/-preset.
func PresetFromSpec(s *spec.Spec) Preset {
	rates := s.SweepRates()
	p := Preset{Name: s.Name, Description: s.Description, Rates: rates, Scenario: s.Scenario(rates[0])}
	p.Label, p.RateQPS = "", 0
	return p
}

// RunPreset executes a preset sweep. Rates fan out through the sched
// worker pool under the options' shared budget and backend pool exactly
// like the paper's sweeps, so output is byte-identical for any -parallel
// value. opts.Runs and opts.TargetSamples, when set, override the
// preset's full-size defaults — the smoke knob CI uses. The sample mode
// defaults to the scenario's auto selection, which at full-size counts
// always chooses the streaming reduction.
func RunPreset(p Preset, opts SweepOptions) (*PresetResult, error) {
	pr := &PresetResult{Preset: p, Results: make([]experiment.Result, len(p.Rates))}
	envCtx, width := opts.envContext()
	pool := sched.Pool{Workers: width}
	results, err := sched.MapWorkers(envCtx, pool, len(p.Rates),
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(ctx context.Context, _ struct{}, i int) (experiment.Result, error) {
			res, err := experiment.RunContext(ctx, PresetScenario(p, p.Rates[i], opts))
			if err != nil {
				return experiment.Result{}, fmt.Errorf("figures: preset %s @%s: %w", p.Name, FormatRate(p.Rates[i]), err)
			}
			return res, nil
		},
		func(i int, res experiment.Result) {
			opts.progress("%s", presetProgressLine(p, p.Rates[i], res))
		})
	if err != nil {
		return nil, sched.Unwrap(err)
	}
	pr.Results = results
	return pr, nil
}

// presetProgressLine formats one finished rate's progress line. Like
// Render, it must guard the per-run sample count: a result can carry
// zero runs, and the progress path used to index Runs[0] unguarded.
func presetProgressLine(p Preset, rate float64, res experiment.Result) string {
	samples := 0
	if len(res.Runs) > 0 {
		samples = res.Runs[0].Samples
	}
	return fmt.Sprintf("%s @%s: avg=%.1fµs p99=%.1fµs (%d runs × %d samples)",
		p.Name, FormatRate(rate), res.MedianAvgUs(), res.MedianP99Us(), len(res.Runs), samples)
}

// Render formats the preset sweep as a rate table in the style of the
// paper's figures.
func (pr *PresetResult) Render() string {
	var b strings.Builder
	p := pr.Preset
	mode := metrics.SampleAuto
	if len(pr.Results) > 0 {
		mode = pr.Results[0].Scenario.EffectiveSampleMode()
	}
	fmt.Fprintf(&b, "%s: %s (%s client, %s server, %s reduction)\n",
		p.Name, p.Description, p.Client.Name, p.Server.Name, mode)
	fmt.Fprintf(&b, "%-12s %10s %12s %12s %12s %10s\n",
		"rate", "runs", "avg(µs)", "p99(µs)", "stddev(µs)", "samples")
	for i, rate := range p.Rates {
		res := pr.Results[i]
		samples := 0
		if len(res.Runs) > 0 {
			samples = res.Runs[0].Samples
		}
		fmt.Fprintf(&b, "%-12s %10d %12.2f %12.2f %12.2f %10d\n",
			FormatRate(rate), len(res.Runs), res.MedianAvgUs(), res.MedianP99Us(), res.StdDevAvgUs, samples)
	}
	return strings.TrimRight(b.String(), "\n")
}
