// Package cliflags is the one flag layer of the repro and labsim
// commands. Register defines the flags both take (-spec -runs -samples
// -seed -parallel -samplemode -replicas -router -shards -timeout
// -retries -hedge), so each means the same in both. Base resolves an
// invocation's base preset: a -spec file or a named built-in. Options
// resolves the flags against it into figures.SweepOptions and validates
// them once: the base's first-rate scenario, with every override
// applied, must pass experiment.Scenario.Validate. The layer keeps only
// the rules about the flags themselves: the base owns the scenario
// shape, so the shape flags conflict with it; -router needs a fleet; and
// a negative value or an explicit -shards 0 is rejected, because the
// overrides apply only positive values and would drop it without a word.
package cliflags

import (
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// Flags holds the shared flags' values once their FlagSet is parsed.
type Flags struct {
	fs         *flag.FlagSet
	Spec       string
	Runs       int
	Samples    int
	Seed       uint64
	Parallel   int
	SampleMode string
	Replicas   int
	Router     string
	Shards     int
	Timeout    time.Duration
	Retries    int
	Hedge      time.Duration
}

// Register defines the shared flags on fs; seed and runs are the
// command's own -seed and -runs defaults.
func Register(fs *flag.FlagSet, seed uint64, runs int) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.Spec, "spec", "", "run a workload spec file (YAML or JSON); the spec owns the scenario shape")
	fs.IntVar(&f.Runs, "runs", runs, "repetitions per configuration (unset or 0 = the preset's or spec's; figure grids: the paper's 50, or 20 for the synthetic study)")
	fs.IntVar(&f.Samples, "samples", 0, "post-warmup samples per run (0 = the preset's or spec's, else the per-service default)")
	fs.Uint64Var(&f.Seed, "seed", seed, "experiment seed (same seed ⇒ identical output)")
	fs.IntVar(&f.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker budget shared by sweep cells and repetitions (output is identical for any value)")
	fs.StringVar(&f.SampleMode, "samplemode", "auto", "per-run sample reduction: auto|exact|streaming (streaming runs in O(1) memory per run)")
	fs.IntVar(&f.Replicas, "replicas", 0, "run each backend as N replicas behind -router (0 = preset/spec shape, else a single backend)")
	fs.StringVar(&f.Router, "router", "", "replica routing policy: round-robin|least-outstanding|consistent-hash")
	fs.IntVar(&f.Shards, "shards", 0, "partition each run across N simulation engines (0 = preset/spec shape; output identical for any value)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "per-request client timeout enabling the resilience stack (0 = preset/spec shape)")
	fs.IntVar(&f.Retries, "retries", 0, "bounded retry budget per request; requires a timeout (0 = preset/spec shape)")
	fs.DurationVar(&f.Hedge, "hedge", 0, "hedged-request delay, below the timeout; requires a timeout (0 = preset/spec shape)")
	return f
}

// Set reports whether the named flag was given on the command line.
func (f *Flags) Set(name string) bool {
	set := false
	f.fs.Visit(func(fl *flag.Flag) { set = set || fl.Name == name })
	return set
}

// Base resolves the invocation's base preset: the -spec file, else the
// built-in preset the flag nameFlag names (case-insensitively), else
// nil. The base owns the scenario shape, so setting a flag named in
// shape beside it is a conflict, as is setting nameFlag beside -spec.
func (f *Flags) Base(nameFlag string, shape ...string) (*figures.Preset, error) {
	if f.Spec != "" {
		if err := f.conflict("spec", append(slices.Clone(shape), nameFlag)); err != nil {
			return nil, err
		}
		s, err := spec.Load(f.Spec)
		if err != nil {
			return nil, err
		}
		p := figures.PresetFromSpec(s)
		return &p, nil
	}
	p, ok := figures.PresetByName(strings.ToLower(f.fs.Lookup(nameFlag).Value.String()))
	if !ok {
		return nil, nil
	}
	if err := f.conflict(nameFlag, shape); err != nil {
		return nil, err
	}
	return &p, nil
}

// conflict rejects the flags among names set beside the owner flag and
// lists the flags that still apply.
func (f *Flags) conflict(owner string, names []string) error {
	var set, apply []string
	f.fs.VisitAll(func(fl *flag.Flag) {
		switch {
		case fl.Name == owner || fl.Name == "spec":
		case !slices.Contains(names, fl.Name):
			apply = append(apply, "-"+fl.Name)
		case f.Set(fl.Name):
			set = append(set, "-"+fl.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("%s conflict with -%s (it owns the scenario shape; %s still apply)",
		strings.Join(set, " "), owner, strings.Join(apply, " "))
}

// Options resolves the shared flags against base — nil for a figure
// grid, whose cells each bring their own shape — into sweep options,
// validates them, and returns the -shards warning (empty for none). An
// unset -runs keeps the base's run count.
func (f *Flags) Options(base *figures.Preset) (figures.SweepOptions, string, error) {
	mode, err := metrics.ParseMode(f.SampleMode)
	if err != nil {
		return figures.SweepOptions{}, "", err
	}
	opts := figures.SweepOptions{
		Seed: f.Seed, TargetSamples: f.Samples, Workers: f.Parallel, SampleMode: mode,
		Replicas: f.Replicas, Router: f.Router, Shards: f.Shards,
		Timeout: f.Timeout, Retries: f.Retries, Hedge: f.Hedge,
	}
	if f.Set("runs") {
		opts.Runs = f.Runs
	}
	if f.Set("shards") && f.Shards < 1 {
		return figures.SweepOptions{}, "", fmt.Errorf("-shards must be ≥ 1, got %d", f.Shards)
	}
	for _, name := range []string{"runs", "samples", "replicas", "timeout", "retries", "hedge"} {
		// Each of these flags prints a negative value with a leading minus.
		if v := f.fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return figures.SweepOptions{}, "", fmt.Errorf("-%s must be ≥ 0, got %s", name, v)
		}
	}
	if f.Router != "" {
		if _, err := cluster.NewRouter(f.Router); err != nil {
			return figures.SweepOptions{}, "", err
		}
		if f.Replicas == 0 && (base == nil || !base.Clustered()) {
			return figures.SweepOptions{}, "", fmt.Errorf("-router %s requires -replicas (or a clustered preset/spec)", f.Router)
		}
	}
	if base == nil {
		// Each grid cell validates its own shape before it runs; the
		// resilience flags must still make a valid config on their own.
		err = loadgen.ResilienceConfig{Timeout: f.Timeout, Retries: f.Retries, Hedge: f.Hedge}.Validate()
	} else {
		err = figures.PresetScenario(*base, base.Rates[0], opts).Validate()
	}
	if err != nil {
		return figures.SweepOptions{}, "", err
	}
	replicas := f.Replicas
	if replicas == 0 && base != nil {
		replicas = base.Replicas
	}
	return opts, ShardWarning(f.Shards, replicas), nil
}

// ShardWarning returns a one-line ergonomics warning when -shards > 1
// runs a single-backend topology (replicas ≤ 1, after preset and spec
// defaults resolved): the partition layout pins all server work to the
// shard that owns the backend, so conservative sync runs near its
// break-even instead of speeding up. Replicated topologies spread server
// work across shards and get no warning. Warning only: the run proceeds,
// and its output is byte-identical either way.
func ShardWarning(shards, replicas int) string {
	if shards <= 1 || replicas > 1 {
		return ""
	}
	return fmt.Sprintf("warning: -shards %d on a single-backend topology keeps all server work on one shard (near the sharding break-even); use -parallel to parallelize across runs, or -replicas to spread server work", shards)
}
