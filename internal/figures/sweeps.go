package figures

import (
	"context"
	"fmt"
	"time"

	"repro/internal/envpool"
	"repro/internal/experiment"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// SweepOptions size a figure regeneration.
type SweepOptions struct {
	// Runs per configuration point (paper: 50; the synthetic study: 20).
	Runs int
	// Seed derives all randomness.
	Seed uint64
	// TargetSamples overrides the per-run sample count (0 = default).
	TargetSamples int
	// Progress, when non-nil, receives one line per finished scenario.
	// Lines arrive in grid order regardless of the worker count.
	Progress func(line string)
	// Workers is the sweep's global worker budget, with the same value
	// semantics as experiment.Scenario.Workers: 0 or 1 means one worker,
	// negative selects runtime.GOMAXPROCS(0). The budget is shared
	// between the sweep's two fan-out levels — grid cells and the
	// repetitions inside each cell — so total live workers never exceed
	// it. Every cell derives its randomness from its own labeled
	// streams, so the sweep — results and progress output — is
	// byte-identical for any worker count.
	Workers int
	// Budget, when non-nil, supplies the worker budget instead of a
	// fresh one Workers wide — share one across sweeps (as cmd/repro
	// does) or inspect its high-water mark in tests. With Workers == 0
	// the sweep inherits the supplied budget's width, mirroring
	// experiment.Scenario.Workers under a budget.
	Budget *sched.Budget
	// Backends, when non-nil, supplies the backend pool cells lease
	// prebuilt backends from instead of a fresh per-sweep pool. Sharing
	// one across sweeps reuses backends whenever server configurations
	// recur.
	Backends *envpool.Pool
	// SampleMode selects every cell's per-run measurement reduction
	// (experiment.Scenario.SampleMode): exact, streaming, or — the
	// default — automatic selection by per-run sample count.
	SampleMode metrics.Mode
	// Replicas and Router override the preset/sweep cluster shape
	// (experiment.Scenario semantics): every cell runs its backend as a
	// replica set behind the named policy. Zero values keep each
	// preset's own shape — the single-backend path for the paper sweeps.
	Replicas int
	Router   string
	// Shards overrides the preset/sweep engine partitioning
	// (experiment.Scenario.Shards): every cell's runs execute across
	// this many conservatively-synchronized engines, matching the
	// single-engine path at the tested scales. Zero keeps each preset's
	// own shape.
	Shards int
	// Timeout, Retries and Hedge override the preset's client-side
	// resilience knobs (loadgen.ResilienceConfig semantics): a positive
	// Timeout enables resilience and sets the per-request deadline, a
	// positive Retries bounds re-sends, a positive Hedge issues a hedged
	// clone after that delay. Zero values keep each preset's own
	// resilience shape, like Replicas and Shards.
	Timeout time.Duration
	Retries int
	Hedge   time.Duration
}

// envContext assembles the sweep's environment — its worker budget and
// backend pool, defaulted when the options don't share existing ones —
// and returns the cell-level pool width: a supplied budget sets the
// width when Workers is unset, mirroring experiment.RunContext.
func (o SweepOptions) envContext() (context.Context, int) {
	budget := o.Budget
	if budget == nil {
		budget = sched.NewBudget(sched.Resolve(o.Workers))
	}
	workers := sched.Resolve(o.Workers)
	if o.Workers == 0 && o.Budget != nil {
		workers = budget.Capacity()
	}
	backends := o.Backends
	if backends == nil {
		backends = envpool.New()
	}
	return envpool.WithPool(sched.WithBudget(context.Background(), budget), backends), workers
}

// override applies the options to a scenario built in a preset's or
// grid cell's own shape. Seed and SampleMode always apply. Every other
// option replaces the scenario's value when set and keeps it when zero.
// An explicit TargetSamples also zeroes Duration: the smoke knob shrinks
// duration-sized (phase-program) presets to smoke scale too. Timeout,
// Retries and Hedge override single fields of the scenario's resilience
// config, starting from a fresh one when the scenario has none.
func (o SweepOptions) override(s experiment.Scenario) experiment.Scenario {
	s.Seed, s.SampleMode = o.Seed, o.SampleMode
	if o.Runs > 0 {
		s.Runs = o.Runs
	}
	if o.TargetSamples > 0 {
		s.TargetSamples, s.Duration = o.TargetSamples, 0
	}
	if o.Replicas > 0 {
		s.Replicas = o.Replicas
	}
	if o.Router != "" {
		s.Router = o.Router
	}
	if o.Shards > 0 {
		s.Shards = o.Shards
	}
	if o.Timeout > 0 || o.Retries > 0 || o.Hedge > 0 {
		res := loadgen.ResilienceConfig{}
		if s.Resilience != nil {
			res = *s.Resilience
		}
		if o.Timeout > 0 {
			res.Timeout = o.Timeout
		}
		if o.Retries > 0 {
			res.Retries = o.Retries
		}
		if o.Hedge > 0 {
			res.Hedge = o.Hedge
		}
		s.Resilience = &res
	}
	return s
}

func (o SweepOptions) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Sweep holds results for clients × variants × rates of one service.
type Sweep struct {
	Service  experiment.Service
	Clients  []string
	Variants []string
	Rates    []float64
	// Results[client][variant][i] corresponds to Rates[i].
	Results map[string]map[string][]experiment.Result
}

// Get returns one configuration point's result.
func (s *Sweep) Get(client, variant string, rateIdx int) experiment.Result {
	return s.Results[client][variant][rateIdx]
}

// sweepCell is one (client, variant, rate) grid point of a service sweep.
type sweepCell struct {
	client  hw.Config
	variant experiment.ServerVariant
	rateIdx int
	rate    float64
}

// RunServiceSweep runs a client × server-variant × rate sweep for one
// service. Cells are dispatched through the sched worker pool under a
// global worker budget (SweepOptions.Workers wide) shared with the
// repetitions inside each cell, and cells lease prebuilt backends from
// the sweep's envpool instead of rebuilding per cell; because every
// cell's scenario derives its randomness from its own labeled streams,
// the parallel sweep is byte-identical to the sequential one.
func RunServiceSweep(service experiment.Service, variants []experiment.ServerVariant, rates []float64, opts SweepOptions) (*Sweep, error) {
	sw := &Sweep{
		Service: service,
		Rates:   rates,
		Results: make(map[string]map[string][]experiment.Result),
	}
	for _, v := range variants {
		sw.Variants = append(sw.Variants, v.Name)
	}
	var cells []sweepCell
	for _, cl := range hw.Clients() {
		sw.Clients = append(sw.Clients, cl.Name)
		sw.Results[cl.Name] = make(map[string][]experiment.Result, len(variants))
		for _, v := range variants {
			sw.Results[cl.Name][v.Name] = make([]experiment.Result, len(rates))
			for ri, rate := range rates {
				cells = append(cells, sweepCell{client: cl, variant: v, rateIdx: ri, rate: rate})
			}
		}
	}

	envCtx, width := opts.envContext()
	pool := sched.Pool{Workers: width}
	results, err := sched.MapWorkers(envCtx, pool, len(cells),
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(ctx context.Context, _ struct{}, i int) (experiment.Result, error) {
			c := cells[i]
			res, err := experiment.RunContext(ctx, opts.override(experiment.Scenario{
				Service: service,
				Label:   c.client.Name + "-" + c.variant.Name,
				Client:  c.client,
				Server:  c.variant.Cfg,
				RateQPS: c.rate,
				Runs:    50,
			}))
			if err != nil {
				return experiment.Result{}, fmt.Errorf("figures: %s %s-%s @%s: %w", service, c.client.Name, c.variant.Name, FormatRate(c.rate), err)
			}
			return res, nil
		},
		func(i int, res experiment.Result) {
			c := cells[i]
			opts.progress("%s %s-%s @%s: avg=%.1fµs p99=%.1fµs (%d runs)",
				service, c.client.Name, c.variant.Name, FormatRate(c.rate), res.MedianAvgUs(), res.MedianP99Us(), len(res.Runs))
		})
	if err != nil {
		return nil, sched.Unwrap(err)
	}
	for i, res := range results {
		c := cells[i]
		sw.Results[c.client.Name][c.variant.Name][c.rateIdx] = res
	}
	return sw, nil
}

// RunMemcachedStudy runs the combined Figure 2 + Figure 3 sweep: the SMToff
// baseline doubles as C1Eoff, so three variants cover both figures
// (the paper's six scenarios of Fig. 8 / Table IV).
func RunMemcachedStudy(opts SweepOptions) (*Sweep, error) {
	variants := []experiment.ServerVariant{
		experiment.SMTVariants()[0], // SMToff == C1Eoff baseline
		experiment.SMTVariants()[1], // SMTon
		experiment.C1EVariants()[1], // C1Eon
	}
	return RunServiceSweep(experiment.ServiceMemcached, variants, experiment.MemcachedRates(), opts)
}

// RunHDSearchStudy runs the Figure 4 sweep.
func RunHDSearchStudy(opts SweepOptions) (*Sweep, error) {
	variants := []experiment.ServerVariant{
		experiment.SMTVariants()[0],
		experiment.SMTVariants()[1],
		experiment.C1EVariants()[1],
	}
	return RunServiceSweep(experiment.ServiceHDSearch, variants, experiment.HDSearchRates(), opts)
}

// RunSocialNetStudy runs the Figure 6 sweep (baseline server only).
func RunSocialNetStudy(opts SweepOptions) (*Sweep, error) {
	return RunServiceSweep(experiment.ServiceSocialNet,
		experiment.SMTVariants()[:1], experiment.SocialNetRates(), opts)
}

// SyntheticSweep holds the Figure 7 grid: delays × rates × clients.
type SyntheticSweep struct {
	Delays []time.Duration
	Rates  []float64
	// Results[client][delayIdx][rateIdx].
	Results map[string][][]experiment.Result
}

// RunSyntheticStudy runs the Figure 7 sensitivity grid (paper: 20 runs).
// Like RunServiceSweep, the grid's cells fan out over the sched pool —
// under the shared worker budget, leasing pooled backends — with results
// and progress independent of the worker count.
func RunSyntheticStudy(opts SweepOptions) (*SyntheticSweep, error) {
	sw := &SyntheticSweep{
		Delays:  experiment.SyntheticDelays(),
		Rates:   experiment.SyntheticRates(),
		Results: make(map[string][][]experiment.Result),
	}
	type synthCell struct {
		client  hw.Config
		delay   time.Duration
		dIdx    int
		rate    float64
		rateIdx int
	}
	var cells []synthCell
	for _, cl := range hw.Clients() {
		grid := make([][]experiment.Result, len(sw.Delays))
		for di, delay := range sw.Delays {
			grid[di] = make([]experiment.Result, len(sw.Rates))
			for ri, rate := range sw.Rates {
				cells = append(cells, synthCell{client: cl, delay: delay, dIdx: di, rate: rate, rateIdx: ri})
			}
		}
		sw.Results[cl.Name] = grid
	}

	envCtx, width := opts.envContext()
	pool := sched.Pool{Workers: width}
	results, err := sched.MapWorkers(envCtx, pool, len(cells),
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(ctx context.Context, _ struct{}, i int) (experiment.Result, error) {
			c := cells[i]
			res, err := experiment.RunContext(ctx, opts.override(experiment.Scenario{
				Service:    experiment.ServiceSynthetic,
				Label:      fmt.Sprintf("%s-d%d", c.client.Name, c.delay.Microseconds()),
				Client:     c.client,
				Server:     hw.ServerBaselineConfig(),
				RateQPS:    c.rate,
				Runs:       20,
				SynthDelay: c.delay,
			}))
			if err != nil {
				return experiment.Result{}, fmt.Errorf("figures: synthetic %s delay=%v @%s: %w", c.client.Name, c.delay, FormatRate(c.rate), err)
			}
			return res, nil
		},
		func(i int, res experiment.Result) {
			c := cells[i]
			opts.progress("synthetic %s delay=%v @%s: avg=%.1fµs", c.client.Name, c.delay, FormatRate(c.rate), res.MedianAvgUs())
		})
	if err != nil {
		return nil, sched.Unwrap(err)
	}
	for i, res := range results {
		c := cells[i]
		sw.Results[c.client.Name][c.dIdx][c.rateIdx] = res
	}
	return sw, nil
}
