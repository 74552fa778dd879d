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
// synchronized engines; results are byte-identical to -shards 1, only
// wall-clock changes. Clustered shapes need the consistent-hash router
// (routing is decided at send time on the sharded path).
//
// -timeout arms the client resilience stack: requests that outlive the
// timeout are abandoned and, with -retries, resent with exponential
// backoff and decorrelated jitter; -hedge sends a backup copy to a
// different replica when the first attempt is slow. Per-run availability,
// retry amplification and the per-replica fault timeline print after the
// cluster stats whenever the scenario injects faults or enables
// resilience.
//
// -preset loads a large-scale scenario (million-qps, cluster, sharded,
// faulty-cluster, hour-long)
// as the flag defaults: service, client, server, rate, run count,
// sample target and replica shape come from the preset (million-qps
// uses its peak rate), and any flag set explicitly on the command line
// still wins — so
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
// the file. The spec owns the scenario shape, so -preset and the
// shape flags (-service, -client*, -server-*, -delay, -replicas,
// -router, -shards) conflict with it; the smoke knobs (-rate, -runs, -samples,
// -seed, -parallel, -samplemode, -point) still apply:
//
//	labsim -spec examples/onoff-sessions.yaml -runs 2 -samples 2000
//
// All flag combinations — including an unknown router or -router
// without -replicas — are validated before any simulation starts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/envpool"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	var (
		preset     = flag.String("preset", "", "load a scale preset's defaults: million-qps|cluster|sharded|faulty-cluster|hour-long (explicit flags still win)")
		specPath   = flag.String("spec", "", "run a workload spec file (YAML or JSON); conflicts with -preset and the scenario-shape flags")
		service    = flag.String("service", "memcached", "memcached|hdsearch|socialnet|synthetic")
		rate       = flag.Float64("rate", 100_000, "offered load in QPS")
		clientName = flag.String("client", "LP", "client preset: LP or HP")
		maxCState  = flag.String("client-max-cstate", "", "override client deepest C-state (C0,C1,C1E,C6)")
		governor   = flag.String("client-governor", "", "override client governor (powersave|performance)")
		turbo      = flag.Bool("client-turbo", true, "client turbo mode")
		serverSMT  = flag.Bool("server-smt", false, "enable SMT on the server")
		serverC1E  = flag.Bool("server-c1e", false, "enable C1E on the server")
		delay      = flag.Duration("delay", 0, "synthetic service added busy-wait")
		point      = flag.String("point", "in-app", "measurement point: in-app|kernel-socket|nic")
		runs       = flag.Int("runs", 10, "repetitions")
		samples    = flag.Int("samples", 0, "post-warmup samples per run (0 = default)")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent repetitions (results are identical for any value)")
		sampleMode = flag.String("samplemode", "auto", "per-run sample reduction: auto|exact|streaming")
		replicas   = flag.Int("replicas", 0, "run the backend as N replicas behind -router (0 = single backend)")
		router     = flag.String("router", "", "replica routing policy: round-robin|least-outstanding|consistent-hash")
		shards     = flag.Int("shards", 0, "partition each run across N simulation engines (0 = single engine; results identical for any value)")
		timeout    = flag.Duration("timeout", 0, "per-request client timeout enabling the resilience stack (0 = preset default)")
		retries    = flag.Int("retries", 0, "bounded retry budget per request; requires -timeout or a resilient preset (0 = preset default)")
		hedge      = flag.Duration("hedge", 0, "hedged-request delay, must be below the timeout; requires -timeout or a resilient preset (0 = preset default)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "labsim:", err)
		os.Exit(1)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var presetServer *hw.Config
	var presetFaults *faults.Plan
	var presetResilience *loadgen.ResilienceConfig
	var presetHiccupRate float64
	var presetHiccupMean time.Duration
	if *preset != "" {
		p, ok := figures.PresetByName(*preset)
		if !ok {
			fmt.Fprintf(os.Stderr, "labsim: unknown preset %q; available:\n%s\n", *preset, figures.PresetUsage())
			os.Exit(1)
		}
		// Preset values are defaults: a flag the user set explicitly wins.
		if !set["service"] {
			*service = string(p.Service)
		}
		if !set["client"] {
			*clientName = p.ClientName
		}
		if !set["rate"] {
			*rate = p.Rates[len(p.Rates)-1] // the preset's peak rate
		}
		if !set["runs"] {
			*runs = p.Runs
		}
		if !set["samples"] {
			*samples = p.TargetSamples
		}
		if !set["server-smt"] && !set["server-c1e"] {
			presetServer = &p.Server
		}
		if !set["replicas"] {
			*replicas = p.Replicas
		}
		if !set["router"] {
			*router = p.Router
		}
		if !set["shards"] {
			*shards = p.Shards
		}
		presetFaults = p.Faults
		presetResilience = p.Resilience
		presetHiccupRate, presetHiccupMean = p.HiccupRate, p.HiccupMean
	}

	if err := checkFlags(set, *specPath, *replicas, *router, *shards, *service); err != nil {
		fail(err)
	}
	if w := cliflags.ShardWarning(*shards, *replicas); w != "" {
		fmt.Fprintln(os.Stderr, "labsim:", w)
	}

	mode, err := metrics.ParseMode(*sampleMode)
	if err != nil {
		fail(err)
	}

	var mp core.MeasurementPoint
	switch *point {
	case "in-app":
		mp = core.InApp
	case "kernel-socket":
		mp = core.KernelSocket
	case "nic":
		mp = core.NICHardware
	default:
		fail(fmt.Errorf("unknown measurement point %q", *point))
	}

	var sc experiment.Scenario
	if *specPath != "" {
		s, err := spec.Load(*specPath)
		if err != nil {
			fail(err)
		}
		rates := s.SweepRates()
		specRate := rates[len(rates)-1] // the spec's peak rate, like -preset
		if set["rate"] {
			specRate = *rate
		}
		sc = s.Scenario(specRate)
		if set["runs"] {
			sc.Runs = *runs
		}
		if set["samples"] {
			// The smoke knob wins outright, as with presets: an explicit
			// sample target also shrinks duration-sized specs.
			sc.TargetSamples = *samples
			sc.Duration = 0
		}
	} else {
		client, err := clientConfig(*clientName, *maxCState, *governor, *turbo)
		if err != nil {
			fail(err)
		}
		server := hw.ServerBaselineConfig()
		if presetServer != nil {
			server = *presetServer
		}
		if *serverSMT {
			server = server.WithSMT(true)
		}
		if *serverC1E {
			server = server.WithMaxCState("C1E")
		}
		sc = experiment.Scenario{
			Service:       experiment.Service(*service),
			Label:         *clientName,
			Client:        client,
			Server:        server,
			RateQPS:       *rate,
			Runs:          *runs,
			TargetSamples: *samples,
			SynthDelay:    *delay,
			Replicas:      *replicas,
			Router:        *router,
			Shards:        *shards,
			Faults:        presetFaults,
			Resilience:    presetResilience,
			HiccupRate:    presetHiccupRate,
			HiccupMean:    presetHiccupMean,
		}
	}
	if err := cliflags.CheckResilience(*timeout, *retries, *hedge,
		sc.Resilience != nil && sc.Resilience.Enabled()); err != nil {
		fail(err)
	}
	if *timeout > 0 || *retries > 0 || *hedge > 0 {
		res := loadgen.ResilienceConfig{}
		if sc.Resilience != nil {
			res = *sc.Resilience
		}
		if *timeout > 0 {
			res.Timeout = *timeout
		}
		if *retries > 0 {
			res.Retries = *retries
		}
		if *hedge > 0 {
			res.Hedge = *hedge
		}
		sc.Resilience = &res
	}
	sc.Point = mp
	sc.Seed = *seed
	sc.Workers = *parallel
	sc.SampleMode = mode

	ctx := envpool.NewContext(context.Background(), *parallel)
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

// specOwnedFlags are the scenario-shape flags a workload spec defines
// itself; setting one alongside -spec is a conflict, not an override.
var specOwnedFlags = []string{
	"preset", "service", "client", "client-max-cstate", "client-governor",
	"client-turbo", "server-smt", "server-c1e", "delay", "replicas", "router",
	"shards",
}

// checkFlags validates flag combinations before any simulation starts:
// -spec against the spec-owned shape flags, and the router/replicas
// pairing (after preset defaults resolved, so -preset cluster alone is
// fine).
func checkFlags(set map[string]bool, specPath string, replicas int, router string, shards int, service string) error {
	if specPath != "" {
		var conflicts []string
		for _, name := range specOwnedFlags {
			if set[name] {
				conflicts = append(conflicts, "-"+name)
			}
		}
		if len(conflicts) > 0 {
			return fmt.Errorf("%s conflict with -spec (the spec owns the scenario shape; -rate -runs -samples -seed -parallel -samplemode -point still apply)",
				strings.Join(conflicts, " "))
		}
		return nil
	}
	if replicas < 0 {
		return fmt.Errorf("-replicas must be ≥ 0, got %d", replicas)
	}
	if router != "" {
		if _, err := cluster.NewRouter(router); err != nil {
			return err
		}
		if replicas <= 0 {
			return fmt.Errorf("-router %s requires -replicas", router)
		}
	}
	if set["shards"] && shards < 1 {
		return fmt.Errorf("-shards must be ≥ 1, got %d", shards)
	}
	if p := experiment.ShardPartitions(experiment.Service(service), replicas); shards > p {
		return fmt.Errorf("-shards %d exceeds the %d machine+replica partitions", shards, p)
	}
	return nil
}

func clientConfig(preset, maxCState, governor string, turbo bool) (hw.Config, error) {
	var cfg hw.Config
	switch preset {
	case "LP":
		cfg = hw.LPConfig()
	case "HP":
		cfg = hw.HPConfig()
	default:
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
