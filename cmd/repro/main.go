// Command repro regenerates every table and figure of the paper's
// evaluation from the testbed simulation.
//
// Usage:
//
//	repro [-experiment all|table1|table2|table3|recommendations|fig2|...|fig9|table4|PRESET]
//	      [-spec FILE] [-runs N] [-samples N] [-seed N] [-parallel N]
//	      [-samplemode auto|exact|streaming] [-replicas N] [-router R]
//	      [-shards N] [-timeout D] [-retries N] [-hedge D] [-v]
//
// With -experiment all (the default) the Memcached study is computed once
// and shared by Figures 2, 3, 5, 8, 9 and Table IV, exactly as the paper
// derives them from the same 42 configurations.
//
// Beyond the paper's sweeps, -experiment also accepts the large-scale
// presets the engine work unlocked (timer-wheel O(1) scheduling,
// streaming measurement, pooled request lifecycle), case-insensitively:
//
//	million-qps     Memcached load sweep to 1M QPS, 1M streamed samples/run
//	cluster         Replicated Memcached fleet behind consistent hashing
//	sharded         The cluster sweep with each run split over 4 engines
//	faulty-cluster  The cluster fleet with a replica crash, timeouts, retries
//	hour-long       Memcached at 100K QPS for one virtual hour per run
//
// Presets are excluded from -experiment all (they are full-size by
// design); -runs and -samples scale them down, which is how CI smokes
// them: repro -experiment million-qps -runs 1 -samples 2000.
//
// -shards partitions every run's simulation across N conservatively-
// synchronized engines (send-time routing requires the consistent-hash
// router on clustered shapes); at the tested scales output stays
// byte-identical to -shards 1 and only wall-clock changes (same-nanosecond
// ties can still move a large run; see ROADMAP open item 1).
//
// -replicas and -router run any experiment's backend as a replica set
// behind a routing policy (round-robin, least-outstanding,
// consistent-hash); clustered preset output adds the load-balance-skew
// and scale-out-latency tables. -timeout, -retries and -hedge arm or
// retune the client resilience stack. The defaults keep each preset's
// own shape and the paper sweeps' single-backend path, whose output is
// unchanged.
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
// -experiment conflicts with -spec (the spec names its own sweep). The
// other flags, shared with labsim through package internal/cliflags,
// scale and reshape a spec as they do a preset, and are validated before
// any work starts: an unknown router, -router without a fleet, or more
// shards than partitions fails in milliseconds instead of after a sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/envpool"
	"repro/internal/figures"
	"repro/internal/sched"
)

func main() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	c, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail(err)
	}
	if c.warning != "" {
		fmt.Fprintln(os.Stderr, "repro:", c.warning)
	}
	// One worker budget and one backend pool span every study of this
	// invocation, so -parallel bounds the whole regeneration and
	// backends are reused across figures, not just within one sweep.
	c.opts.Budget = sched.NewBudget(sched.Resolve(c.opts.Workers))
	c.opts.Backends = envpool.New()
	if c.spec != nil {
		err = runPreset(*c.spec, c.opts)
	} else {
		err = run(c.exp, c.opts)
	}
	if err != nil {
		fail(err)
	}
}

// command is one parsed and validated repro invocation.
type command struct {
	exp     string
	spec    *figures.Preset // the -spec file's preset; nil runs exp
	opts    figures.SweepOptions
	warning string
}

// parse reads repro's command line and validates it through the shared
// flag layer, so a bad invocation fails before any sweep starts.
func parse(fs *flag.FlagSet, args []string) (command, error) {
	exp := fs.String("experiment", "all", "which table/figure to regenerate, or a scale preset (million-qps, cluster, sharded, faulty-cluster, hour-long)")
	verbose := fs.Bool("v", false, "print per-scenario progress to stderr")
	f := cliflags.Register(fs, 2024, 0)
	if err := fs.Parse(args); err != nil {
		return command{}, err
	}
	base, err := f.Base("experiment")
	if err != nil {
		return command{}, err
	}
	opts, warning, err := f.Options(base)
	if err != nil {
		return command{}, err
	}
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	c := command{exp: strings.ToLower(*exp), opts: opts, warning: warning}
	if f.Spec != "" {
		c.spec = base
	}
	return c, nil
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
