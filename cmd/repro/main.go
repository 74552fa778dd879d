// Command repro regenerates every table and figure of the paper's
// evaluation from the testbed simulation.
//
// Usage:
//
//	repro [-experiment all|table1|table2|table3|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|table4]
//	      [-runs N] [-samples N] [-seed N] [-parallel N] [-samplemode auto|exact|streaming] [-v]
//
// With -experiment all (the default) the Memcached study is computed once
// and shared by Figures 2, 3, 5, 8, 9 and Table IV, exactly as the paper
// derives them from the same 42 configurations.
//
// Beyond the paper's sweeps, -experiment also accepts the large-scale
// presets the engine work unlocked (timer-wheel O(1) scheduling,
// streaming measurement, pooled request lifecycle):
//
//	million-qps  Memcached load sweep to 1M QPS, 1M streamed samples/run
//	cluster      Replicated Memcached fleet behind consistent hashing
//	sharded      The cluster sweep with each run split over 4 engines
//	hour-long    Memcached at 100K QPS for one virtual hour per run
//
// Presets are excluded from -experiment all (they are full-size by
// design); -runs and -samples scale them down, which is how CI smokes
// them: repro -experiment million-qps -runs 1 -samples 2000.
//
// -shards partitions every run's simulation across N conservatively-
// synchronized engines (send-time routing requires the consistent-hash
// router on clustered shapes); output stays byte-identical to -shards 1
// — only wall-clock changes.
//
// -replicas and -router run any experiment's backend as a replica set
// behind a routing policy (round-robin, least-outstanding,
// consistent-hash); clustered preset output adds the load-balance-skew
// and scale-out-latency tables. The defaults keep the single-backend
// path, whose output is unchanged.
//
// Experiments fan out on a global budget of -parallel workers (default:
// all CPUs), shared between sweep cells and the repetitions inside each
// cell, so total concurrency never exceeds -parallel. All studies of one
// invocation also share one backend pool: a sweep cell leases a prebuilt
// service instance whenever a previous cell with the same server
// configuration has finished with one. Output is byte-identical for any
// -parallel value: every scenario and run draws from its own labeled RNG
// stream, and the scheduler collects results and progress lines in grid
// order.
//
// -spec runs a declarative workload spec (package internal/spec; YAML or
// JSON) as a sweep instead of a named experiment — client classes,
// bursty arrival processes and phase programs included:
//
//	repro -spec examples/phases-spike.yaml -runs 1 -samples 2000
//
// -spec and -experiment are mutually exclusive (the spec names its own
// sweep); -runs/-samples/-replicas/-router still scale and reshape a
// spec the way they do a preset. Flag combinations are validated before
// any work starts: an unknown router, or -router without -replicas (and
// without a clustered preset or spec), fails in milliseconds instead of
// after a sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/envpool"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/spec"
)

func main() {
	exp := flag.String("experiment", "all", "which table/figure to regenerate, or a scale preset (million-qps, cluster, sharded, faulty-cluster, hour-long)")
	specPath := flag.String("spec", "", "run a workload spec file (YAML or JSON) as a sweep; mutually exclusive with -experiment")
	runs := flag.Int("runs", 0, "repetitions per configuration (0 = paper defaults: 50, or 20 for the synthetic study)")
	samples := flag.Int("samples", 0, "post-warmup samples per run (0 = per-service default)")
	seed := flag.Uint64("seed", 2024, "experiment seed (same seed ⇒ identical output)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep cells (output is identical for any value)")
	sampleMode := flag.String("samplemode", "auto", "per-run sample reduction: auto|exact|streaming (streaming runs in O(1) memory per run)")
	replicas := flag.Int("replicas", 0, "run each backend as N replicas behind -router (0 = single backend)")
	router := flag.String("router", "", "replica routing policy: round-robin|least-outstanding|consistent-hash")
	shards := flag.Int("shards", 0, "partition each run across N simulation engines (0 = preset/spec shape; output identical for any value)")
	timeout := flag.Duration("timeout", 0, "per-request client timeout enabling the resilience stack (0 = preset/spec shape)")
	retries := flag.Int("retries", 0, "bounded retry budget per request; requires -timeout or a resilient preset/spec (0 = preset/spec shape)")
	hedge := flag.Duration("hedge", 0, "hedged-request delay, must be below the timeout; requires -timeout or a resilient preset/spec (0 = preset/spec shape)")
	verbose := flag.Bool("v", false, "print per-scenario progress to stderr")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}

	mode, err := metrics.ParseMode(*sampleMode)
	if err != nil {
		fail(err)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var specPreset *figures.Preset
	if *specPath != "" {
		s, err := spec.Load(*specPath)
		if err != nil {
			fail(err)
		}
		p := figures.PresetFromSpec(s)
		specPreset = &p
	}
	if err := checkFlags(set["experiment"], *specPath, *replicas, *router,
		baseClustered(strings.ToLower(*exp), specPreset), *shards, set["shards"],
		basePartitions(strings.ToLower(*exp), specPreset, *replicas)); err != nil {
		fail(err)
	}
	if err := cliflags.CheckResilience(*timeout, *retries, *hedge,
		baseResilient(strings.ToLower(*exp), specPreset)); err != nil {
		fail(err)
	}
	if w := cliflags.ShardWarning(*shards, effectiveReplicas(strings.ToLower(*exp), specPreset, *replicas)); w != "" {
		fmt.Fprintln(os.Stderr, "repro:", w)
	}

	opts := figures.SweepOptions{
		Runs: *runs, Seed: *seed, TargetSamples: *samples, Workers: *parallel,
		SampleMode: mode, Replicas: *replicas, Router: *router, Shards: *shards,
		Timeout: *timeout, Retries: *retries, Hedge: *hedge,
		// One worker budget and one backend pool span every study of this
		// invocation, so -parallel bounds the whole regeneration and
		// backends are reused across figures, not just within one sweep.
		Budget:   sched.NewBudget(sched.Resolve(*parallel)),
		Backends: envpool.New(),
	}
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	if specPreset != nil {
		if err := runPreset(*specPreset, opts); err != nil {
			fail(err)
		}
		return
	}
	if err := run(strings.ToLower(*exp), opts); err != nil {
		fail(err)
	}
}

// checkFlags validates flag combinations before any work starts, so a
// bad invocation fails in milliseconds rather than after a sweep.
// clustered reports whether the selected preset or spec already runs a
// replica set, which makes a bare -router a legitimate policy override.
// shards carries the -shards value and whether it was set explicitly (an
// explicit 0 is a request for "no engines", not the default); partitions
// is the invocation's machine+replica partition count when a single
// service is selected, 0 when unknown (figure grids mix services — the
// scenario validator catches oversharding per cell, still before any
// simulation).
func checkFlags(expSet bool, specPath string, replicas int, router string, clustered bool, shards int, shardsSet bool, partitions int) error {
	if specPath != "" && expSet {
		return fmt.Errorf("-spec and -experiment are mutually exclusive (the spec names its own sweep)")
	}
	if replicas < 0 {
		return fmt.Errorf("-replicas must be ≥ 0, got %d", replicas)
	}
	if router != "" {
		if _, err := cluster.NewRouter(router); err != nil {
			return err
		}
		if replicas <= 0 && !clustered {
			return fmt.Errorf("-router %s requires -replicas (or a clustered preset/spec)", router)
		}
	}
	if shardsSet && shards < 1 {
		return fmt.Errorf("-shards must be ≥ 1, got %d", shards)
	}
	if shards > 1 && partitions > 0 && shards > partitions {
		return fmt.Errorf("-shards %d exceeds the %d machine+replica partitions", shards, partitions)
	}
	return nil
}

// baseResilient reports whether the invocation's preset or spec already
// enables client resilience before any flag override.
func baseResilient(exp string, specPreset *figures.Preset) bool {
	if specPreset != nil {
		return specPreset.Resilience != nil && specPreset.Resilience.Enabled()
	}
	if p, ok := figures.PresetByName(exp); ok {
		return p.Resilience != nil && p.Resilience.Enabled()
	}
	return false
}

// basePartitions resolves the invocation's shard-partition count — client
// machines plus backend replicas — when a single preset or spec fixes the
// service; 0 (unknown) otherwise.
func basePartitions(exp string, specPreset *figures.Preset, replicasFlag int) int {
	var p figures.Preset
	if specPreset != nil {
		p = *specPreset
	} else if bp, ok := figures.PresetByName(exp); ok {
		p = bp
	} else {
		return 0
	}
	replicas := p.Replicas
	if replicasFlag > 0 {
		replicas = replicasFlag
	}
	return experiment.ShardPartitions(p.Service, replicas)
}

// effectiveReplicas resolves the replica count the invocation will run:
// the -replicas override when set, else the preset's or spec's shape,
// else the single-backend default.
func effectiveReplicas(exp string, specPreset *figures.Preset, replicasFlag int) int {
	if replicasFlag > 0 {
		return replicasFlag
	}
	if specPreset != nil {
		return specPreset.Replicas
	}
	if p, ok := figures.PresetByName(exp); ok {
		return p.Replicas
	}
	return 0
}

// baseClustered reports whether the invocation's preset or spec selects
// the cluster path before any -replicas override.
func baseClustered(exp string, specPreset *figures.Preset) bool {
	if specPreset != nil {
		return specPreset.Replicas > 1 || specPreset.Autoscale != nil
	}
	if p, ok := figures.PresetByName(exp); ok {
		return p.Replicas > 1
	}
	return false
}

func run(exp string, opts figures.SweepOptions) error {
	var (
		memcachedStudy *figures.Sweep
		hdsearchStudy  *figures.Sweep
	)
	memcached := func() (*figures.Sweep, error) {
		if memcachedStudy == nil {
			var err error
			memcachedStudy, err = figures.RunMemcachedStudy(opts)
			if err != nil {
				return nil, err
			}
		}
		return memcachedStudy, nil
	}
	hdsearch := func() (*figures.Sweep, error) {
		if hdsearchStudy == nil {
			var err error
			hdsearchStudy, err = figures.RunHDSearchStudy(opts)
			if err != nil {
				return nil, err
			}
		}
		return hdsearchStudy, nil
	}

	want := func(name string) bool { return exp == "all" || exp == name }
	matched := false

	if want("table1") {
		matched = true
		fmt.Println(figures.TableI().Render())
	}
	if want("table2") {
		matched = true
		fmt.Println(figures.TableII().Render())
	}
	if want("table3") {
		matched = true
		fmt.Println(figures.TableIII().Render())
	}
	if want("recommendations") {
		matched = true
		fmt.Println(figures.RecommendationsTable().Render())
	}
	if want("fig2") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig2(sw))
	}
	if want("fig3") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig3(sw))
	}
	if want("fig4") {
		matched = true
		sw, err := hdsearch()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig4(sw))
	}
	if want("fig5") {
		matched = true
		m, err := memcached()
		if err != nil {
			return err
		}
		h, err := hdsearch()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig5(m, h))
	}
	if want("fig6") {
		matched = true
		sw, err := figures.RunSocialNetStudy(opts)
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig6(sw))
	}
	if want("fig7") {
		matched = true
		sw, err := figures.RunSyntheticStudy(opts)
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig7(sw))
	}
	if want("fig8") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig8(sw))
	}
	if want("fig9") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		// The paper's Figure 9 shows HP-SMToff at 400K QPS (index 5).
		out, err := figures.Fig9(sw, "HP", "SMToff", 5)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("table4") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		fmt.Println(figures.TableIV(sw, opts.Seed).Render())
	}
	if p, ok := figures.PresetByName(exp); ok {
		matched = true
		if err := runPreset(p, opts); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (want all, table1-4, fig2-9, recommendations, or a preset:\n%s)", exp, figures.PresetUsage())
	}
	return nil
}

// runPreset executes and prints one preset sweep — built-in or compiled
// from a -spec file, which share this path end to end.
func runPreset(p figures.Preset, opts figures.SweepOptions) error {
	pr, err := figures.RunPreset(p, opts)
	if err != nil {
		return err
	}
	fmt.Println(pr.Render())
	if pr.Clustered() {
		fmt.Println()
		fmt.Println(pr.LoadBalanceTable())
		fmt.Println()
		fmt.Println(pr.ScaleOutTable())
	}
	if pr.Faulty() {
		fmt.Println()
		fmt.Println(pr.AvailabilityTable())
		fmt.Println()
		fmt.Println(pr.FaultTimelineTable())
	}
	return nil
}
