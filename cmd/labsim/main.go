// Command labsim runs a single experiment scenario with every knob exposed,
// printing per-run measurements and the §III statistics — the tool to use
// when exploring a configuration outside the paper's fixed sweeps.
//
// Example: evaluate Memcached at 300K QPS through an LP client whose
// deepest C-state is C1E, against an SMT-enabled server:
//
//	labsim -service memcached -rate 300000 -client LP -client-max-cstate C1E \
//	       -server-smt -runs 20
//
// Repetitions execute -parallel wide (default: all CPUs) under an
// envpool environment — a global worker budget plus a backend pool —
// with results byte-identical for any value, including 1.
//
// -replicas and -router run the backend as a replica set behind a
// routing policy (round-robin, least-outstanding, consistent-hash);
// per-replica routed counts and the load-balance skew print after the
// run statistics. The defaults keep the single-backend path unchanged.
//
// -shards partitions every run's simulation across N conservatively-
// synchronized engines; at the tested scales results are byte-identical
// to -shards 1 and only wall-clock changes (same-nanosecond ties can
// still move a large run; see ROADMAP open item 1). Clustered shapes
// need the consistent-hash router (routing is decided at send time on
// the sharded path).
//
// -timeout arms the client resilience stack: requests that outlive the
// timeout are abandoned and, with -retries, resent with exponential
// backoff and decorrelated jitter; -hedge sends a backup copy to a
// different replica when the first attempt is slow. Per-run availability,
// retry amplification and the per-replica fault timeline print after the
// cluster stats whenever the scenario injects faults or enables
// resilience.
//
// -preset runs a large-scale scenario (million-qps, cluster, sharded,
// faulty-cluster, hour-long) at its peak rate: service, client, server,
// run count, sample target, fleet, faults and resilience come from the
// preset, so with the same -seed (repro's default is 2024) it prints the
// numbers of repro -experiment NAME's peak-rate row. The preset owns the
// scenario shape, so the shape flags (-service, -client*, -server-*,
// -delay) conflict with it; every other flag still applies — so
//
//	labsim -preset million-qps -runs 1 -samples 2000
//
// is the smoke-sized version CI runs, and
//
//	labsim -preset hour-long
//
// is a full one-virtual-hour-per-run measurement (streaming reduction
// keeps its memory flat regardless of the 360M samples per run).
//
// -spec runs a declarative workload spec (package internal/spec) at its
// peak rate: class mixes, bursty arrivals and phase programs come from
// the file. The spec owns the scenario shape, so -preset and the shape
// flags conflict with it; -rate, -point and the flags shared with repro
// (-runs -samples -seed -parallel -samplemode -replicas -router -shards
// -timeout -retries -hedge) still apply, the last six as overrides of
// the spec's fleet, engine and resilience shape:
//
//	labsim -spec examples/onoff-sessions.yaml -runs 2 -samples 2000
//
// The shared flags come from package internal/cliflags and are validated
// before any simulation starts: the scenario, with every override
// applied, must pass the scenario validator, so an unknown router,
// -router without a fleet, or a shard count above the partition count
// fails at once.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/envpool"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/hw"
	"repro/internal/stats"
)

func main() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "labsim:", err)
		os.Exit(1)
	}
	sc, warning, err := scenario(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail(err)
	}
	if warning != "" {
		fmt.Fprintln(os.Stderr, "labsim:", warning)
	}
	ctx := envpool.NewContext(context.Background(), sc.Workers)
	res, err := experiment.RunContext(ctx, sc)
	if err != nil {
		fail(err)
	}

	fmt.Printf("service=%s rate=%.0f client=%s server=%s runs=%d\n\n",
		sc.Service, sc.RateQPS, sc.Client.Name, sc.Server.Name, sc.Runs)
	fmt.Printf("%-5s %12s %12s %10s %10s %10s\n", "run", "avg(µs)", "p99(µs)", "samples", "sendlag", "clientC6")
	for i, r := range res.Runs {
		fmt.Printf("%-5d %12.2f %12.2f %10d %10.2f %10d\n", i, r.AvgUs, r.P99Us, r.Samples, r.SendLagUs, r.ClientC6)
	}
	fmt.Println()
	fmt.Printf("avg : median %s  stddev %.2fµs\n", res.AvgCI, res.StdDevAvgUs)
	fmt.Printf("p99 : median %s\n", res.P99CI)

	if sw, err := stats.ShapiroWilk(res.PerRunAvgUs); err == nil {
		fmt.Printf("Shapiro–Wilk: W=%.4f p=%.4g (normal at 5%%: %v)\n", sw.W, sw.PValue, sw.Normal(0.05))
	}
	if n, err := stats.JainIterations(res.PerRunAvgUs, 0.95, 1); err == nil {
		fmt.Printf("Jain iterations for 1%% error @95%%: %d\n", n)
	}
	if acf, err := stats.Autocorrelation(res.PerRunAvgUs, 1); err == nil {
		fmt.Printf("lag-1 autocorrelation of runs: %.3f\n", acf)
	}

	if len(res.Runs) > 0 && res.Runs[0].Cluster != nil {
		fmt.Printf("\ncluster (%s router):\n", res.Runs[0].Cluster.Router)
		for i, r := range res.Runs {
			st := r.Cluster
			fmt.Printf("run %-3d active=%d/%d skew=%.3f scale-events=%d routed=[",
				i, st.Active, st.Capacity, st.Skew(), len(st.ScaleEvents))
			for ri, rep := range st.Replicas {
				if ri > 0 {
					fmt.Print(" ")
				}
				fmt.Printf("%d", rep.Routed)
			}
			fmt.Println("]")
		}
	}

	if len(res.Runs) > 0 && res.Runs[0].Resilience != nil {
		fmt.Println("\nresilience:")
		for i, r := range res.Runs {
			m := r.Resilience
			fmt.Printf("run %-3d avail=%7.3f%% amp=%.3f timeouts=%d retries=%d hedges=%d hedge-wins=%d failed=%d exhausted=%d late=%d goodput=%.0f\n",
				i, m.Availability*100, m.RetryAmplification, m.Stats.Timeouts, m.Stats.Retries,
				m.Stats.Hedges, m.Stats.HedgeWins, m.Stats.Failed, m.Stats.Exhausted,
				m.Stats.LateDrops, m.GoodputQPS)
		}
	}

	if len(res.Runs) > 0 && res.Runs[0].Cluster != nil && (!sc.Faults.Empty() || sc.HiccupRate > 0) {
		fmt.Println("\nfault timeline (summed over runs):")
		reps := len(res.Runs[0].Cluster.Replicas)
		for ri := 0; ri < reps; ri++ {
			var crashes int
			var down, straggle, hictime time.Duration
			var failed, hiccups uint64
			for _, r := range res.Runs {
				if ri >= len(r.Cluster.Replicas) {
					continue
				}
				rep := r.Cluster.Replicas[ri]
				crashes += rep.CrashWindows
				down += rep.DownTime
				failed += rep.CrashFailed
				straggle += rep.StragglerTime
				hiccups += rep.HiccupCount
				hictime += rep.HiccupTime
			}
			fmt.Printf("replica %-3d crashes=%d downtime=%v failed=%d straggle=%v hiccups=%d hiccup-time=%v\n",
				ri, crashes, down, failed, straggle, hiccups, hictime)
		}
	}
}

// shapeFlags select the scenario shape; a -spec file or a -preset owns
// its shape, so setting one of them beside either is a conflict.
var shapeFlags = []string{"service", "client", "client-max-cstate", "client-governor",
	"client-turbo", "server-smt", "server-c1e", "delay"}

// measurementPoints maps -point spellings to measurement points.
var measurementPoints = map[string]core.MeasurementPoint{
	"in-app": core.InApp, "kernel-socket": core.KernelSocket, "nic": core.NICHardware,
}

// scenario reads labsim's command line into the one scenario it runs,
// plus the -shards warning (empty for none). The base preset is the
// -spec file, the -preset, or the unnamed one the shape flags describe;
// the shared flags resolve and validate against it through cliflags, and
// figures.PresetScenario builds the scenario at the base's peak rate or
// at -rate.
func scenario(fs *flag.FlagSet, args []string) (experiment.Scenario, string, error) {
	var (
		preset     = fs.String("preset", "", "run a scale preset at its peak rate: million-qps|cluster|sharded|faulty-cluster|hour-long (conflicts with the shape flags)")
		service    = fs.String("service", "memcached", "memcached|hdsearch|socialnet|synthetic")
		rate       = fs.Float64("rate", 100_000, "offered load in QPS (with -preset or -spec: overrides the peak rate)")
		clientName = fs.String("client", "LP", "client preset: LP or HP")
		maxCState  = fs.String("client-max-cstate", "", "override client deepest C-state (C0,C1,C1E,C6)")
		governor   = fs.String("client-governor", "", "override client governor (powersave|performance)")
		turbo      = fs.Bool("client-turbo", true, "client turbo mode")
		serverSMT  = fs.Bool("server-smt", false, "enable SMT on the server")
		serverC1E  = fs.Bool("server-c1e", false, "enable C1E on the server")
		delay      = fs.Duration("delay", 0, "synthetic service added busy-wait")
		point      = fs.String("point", "in-app", "measurement point: in-app|kernel-socket|nic")
	)
	f := cliflags.Register(fs, 1, 10)
	if err := fs.Parse(args); err != nil {
		return experiment.Scenario{}, "", err
	}
	base, err := f.Base("preset", shapeFlags...)
	if err != nil {
		return experiment.Scenario{}, "", err
	}
	if base == nil {
		if *preset != "" {
			return experiment.Scenario{}, "", fmt.Errorf("unknown preset %q; available:\n%s", *preset, figures.PresetUsage())
		}
		client, err := clientConfig(*clientName, *maxCState, *governor, *turbo)
		if err != nil {
			return experiment.Scenario{}, "", err
		}
		server := hw.ServerBaselineConfig()
		if *serverSMT {
			server = server.WithSMT(true)
		}
		if *serverC1E {
			server = server.WithMaxCState("C1E")
		}
		base = &figures.Preset{Rates: []float64{*rate}, Scenario: experiment.Scenario{
			Service: experiment.Service(*service), Client: client, Server: server,
			Runs: f.Runs, SynthDelay: *delay,
		}}
	}
	opts, warning, err := f.Options(base)
	if err != nil {
		return experiment.Scenario{}, "", err
	}
	mp, ok := measurementPoints[*point]
	if !ok {
		return experiment.Scenario{}, "", fmt.Errorf("unknown measurement point %q", *point)
	}
	qps := base.Rates[len(base.Rates)-1]
	if f.Set("rate") {
		qps = *rate
	}
	sc := figures.PresetScenario(*base, qps, opts)
	if err := sc.Validate(); err != nil { // -rate overrides the rates Options checked
		return experiment.Scenario{}, "", err
	}
	sc.Point = mp
	sc.Workers = f.Parallel
	return sc, warning, nil
}

func clientConfig(preset, maxCState, governor string, turbo bool) (hw.Config, error) {
	cfg, ok := hw.ClientByName(preset)
	if !ok {
		return cfg, fmt.Errorf("unknown client preset %q (want LP or HP)", preset)
	}
	if maxCState != "" {
		cfg.MaxCState = maxCState
	}
	switch governor {
	case "":
	case "powersave":
		cfg.Governor = hw.GovernorPowersave
	case "performance":
		cfg.Governor = hw.GovernorPerformance
	default:
		return cfg, fmt.Errorf("unknown governor %q", governor)
	}
	cfg.Turbo = turbo
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}
