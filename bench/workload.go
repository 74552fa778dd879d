package main

import (
	"context"
	"embed"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/spec"
)

// The workload specs and the recorded baseline are compiled in, so the
// binary runs from any directory and reads no repository file.
//
//go:embed workloads/*.yaml baseline.json
var files embed.FS

// workloadNames lists the benchmark's workloads in run order; each has
// a spec at workloads/<name>.yaml whose name field matches.
var workloadNames = []string{"paper-lp", "hdsearch-lp", "fleet-k2", "faulty-retry"}

// defaultSeed is the seed whose repetition digests baseline.json
// records. Every run re-checks one repetition at this seed.
const defaultSeed = 1

// loadScenario compiles a workload spec through the spec front door
// into a one-repetition, one-worker scenario at the spec's single rate.
func loadScenario(name string) (experiment.Scenario, error) {
	data, err := files.ReadFile("workloads/" + name + ".yaml")
	if err != nil {
		return experiment.Scenario{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	s, err := spec.Parse(data)
	if err != nil {
		return experiment.Scenario{}, fmt.Errorf("workload %s: %w", name, err)
	}
	if s.Name != name {
		return experiment.Scenario{}, fmt.Errorf("workload %s: spec is named %q", name, s.Name)
	}
	rates := s.SweepRates()
	if len(rates) != 1 {
		return experiment.Scenario{}, fmt.Errorf("workload %s: want one rate, spec sweeps %d", name, len(rates))
	}
	sc := s.Scenario(rates[0])
	sc.Runs = 1
	sc.Workers = 1
	return sc, nil
}

// rep is one timed repetition's outcome.
type rep struct {
	Start   time.Time
	Wall    time.Duration
	Metrics experiment.RunMetrics
	Digest  string
	Err     string
}

// runRep executes one repetition of sc at seed and checks its output.
// A run error or a failed sanity check is reported in Err.
func runRep(ctx context.Context, sc experiment.Scenario, seed uint64) rep {
	sc.Seed = seed
	runtime.GOMAXPROCS(procsFor(sc))
	r := rep{Start: time.Now()}
	res, err := experiment.RunContext(ctx, sc)
	r.Wall = time.Since(r.Start)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Metrics = res.Runs[0]
	r.Digest = digest(r.Metrics)
	if err := sane(sc, r.Metrics); err != nil {
		r.Err = err.Error()
	}
	return r
}

// sane checks what must hold for any seed: a sample count near the
// target (the measured window yields a Poisson count around it) and
// finite positive latencies.
func sane(sc experiment.Scenario, m experiment.RunMetrics) error {
	if sc.TargetSamples > 0 {
		lo, hi := 0.9*float64(sc.TargetSamples), 1.1*float64(sc.TargetSamples)
		if n := float64(m.Samples); n < lo || n > hi {
			return fmt.Errorf("%d samples, want within 10%% of %d", m.Samples, sc.TargetSamples)
		}
	}
	for _, v := range []float64{m.AvgUs, m.P99Us} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("latency %v is not finite and positive", v)
		}
	}
	return nil
}
