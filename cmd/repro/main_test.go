package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/loadgen"
	"repro/internal/spec"
)

func TestRunStaticTables(t *testing.T) {
	opts := figures.SweepOptions{Runs: 2, Seed: 1, TargetSamples: 200}
	for _, exp := range []string{"table1", "table2", "table3", "recommendations"} {
		if err := run(exp, opts); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
}

func TestRunScalePresets(t *testing.T) {
	// Smoke scale: the CLI path CI exercises for the million-qps and
	// hour-long presets (full size is minutes of host time).
	opts := figures.SweepOptions{Runs: 1, Seed: 1, TargetSamples: 300}
	for _, exp := range []string{"million-qps", "hour-long", "faulty-cluster"} {
		if err := run(exp, opts); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", figures.SweepOptions{Runs: 1}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestCheckFlags is the fail-fast table: bad flag combinations must be
// rejected at startup, before any sweep runs.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name       string
		expSet     bool
		spec       string
		replicas   int
		router     string
		clustered  bool
		shards     int
		shardsSet  bool
		partitions int
		wantErr    bool
	}{
		{name: "defaults"},
		{name: "spec-alone", spec: "x.yaml"},
		{name: "spec-and-experiment", spec: "x.yaml", expSet: true, wantErr: true},
		{name: "experiment-alone", expSet: true},
		{name: "replicas-no-router", replicas: 4},
		{name: "router-and-replicas", replicas: 4, router: "round-robin"},
		{name: "router-no-replicas", router: "round-robin", wantErr: true},
		{name: "router-clustered-preset", router: "least-outstanding", clustered: true},
		{name: "unknown-router", replicas: 4, router: "random", wantErr: true},
		{name: "unknown-router-clustered", router: "random", clustered: true, wantErr: true},
		{name: "negative-replicas", replicas: -1, wantErr: true},
		{name: "shards-valid", shards: 4, shardsSet: true, partitions: 8},
		{name: "shards-zero-explicit", shardsSet: true, wantErr: true},
		{name: "shards-negative", shards: -1, shardsSet: true, wantErr: true},
		{name: "shards-over-partitions", shards: 5, shardsSet: true, partitions: 4, wantErr: true},
		{name: "shards-unknown-partitions", shards: 16, shardsSet: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.expSet, tc.spec, tc.replicas, tc.router, tc.clustered, tc.shards, tc.shardsSet, tc.partitions)
			if (err != nil) != tc.wantErr {
				t.Errorf("checkFlags = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// TestCheckResilienceFlags pins repro's fail-fast contract for the
// client resilience knobs, which it checks through the shared
// cliflags.CheckResilience (whose merged table lives in that package):
// negatives, dependent flags and the hedge/timeout ordering are rejected
// before any sweep runs.
func TestCheckResilienceFlags(t *testing.T) {
	cases := []struct {
		name      string
		timeout   time.Duration
		retries   int
		hedge     time.Duration
		resilient bool
		wantErr   string // substring; empty = no error
	}{
		{name: "defaults"},
		{name: "timeout-alone", timeout: time.Millisecond},
		{name: "full-stack", timeout: 2 * time.Millisecond, retries: 3, hedge: time.Millisecond},
		{name: "negative-timeout", timeout: -time.Millisecond, wantErr: "-timeout"},
		{name: "negative-retries", retries: -1, wantErr: "-retries"},
		{name: "negative-hedge", hedge: -time.Millisecond, wantErr: "-hedge"},
		{name: "retries-no-timeout", retries: 2, wantErr: "require -timeout"},
		{name: "hedge-no-timeout", hedge: time.Millisecond, wantErr: "require -timeout"},
		{name: "retries-resilient-base", retries: 2, resilient: true},
		{name: "hedge-resilient-base", hedge: time.Millisecond, resilient: true},
		{name: "hedge-at-timeout", timeout: time.Millisecond, hedge: time.Millisecond, wantErr: "below the timeout"},
		{name: "hedge-above-timeout", timeout: time.Millisecond, hedge: 2 * time.Millisecond, wantErr: "below the timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := cliflags.CheckResilience(tc.timeout, tc.retries, tc.hedge, tc.resilient)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("checkResilienceFlags = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("checkResilienceFlags = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestBaseResilient pins which invocations make a bare -retries/-hedge
// legal: the preset or spec must already carry a resilience timeout.
func TestBaseResilient(t *testing.T) {
	if baseResilient("million-qps", nil) {
		t.Error("million-qps reported resilient")
	}
	if !baseResilient("faulty-cluster", nil) {
		t.Error("faulty-cluster preset not reported resilient")
	}
	p := figures.Preset{Resilience: &loadgen.ResilienceConfig{Timeout: time.Millisecond}}
	if !baseResilient("all", &p) {
		t.Error("resilient spec not reported resilient")
	}
	bare := figures.Preset{}
	if baseResilient("faulty-cluster", &bare) {
		t.Error("non-resilient spec reported resilient (spec must win over -experiment name)")
	}
}

// TestBasePartitions pins the fail-fast partition count: the shard
// ceiling a preset or spec invocation is checked against at startup.
func TestBasePartitions(t *testing.T) {
	if got := basePartitions("all", nil, 0); got != 0 {
		t.Errorf("figure grid partitions = %d, want 0 (unknown)", got)
	}
	if got := basePartitions("million-qps", nil, 0); got != 5 {
		t.Errorf("million-qps partitions = %d, want 5 (4 machines + 1 backend)", got)
	}
	if got := basePartitions("sharded", nil, 0); got != 8 {
		t.Errorf("sharded partitions = %d, want 8 (4 machines + 4 replicas)", got)
	}
	if got := basePartitions("million-qps", nil, 3); got != 7 {
		t.Errorf("million-qps -replicas 3 partitions = %d, want 7", got)
	}
	p := figures.Preset{Service: experiment.ServiceHDSearch, Replicas: 2}
	if got := basePartitions("all", &p, 0); got != 3 {
		t.Errorf("hdsearch spec partitions = %d, want 3 (1 machine + 2 replicas)", got)
	}
}

// TestBaseClustered pins which invocations make a bare -router legal.
func TestBaseClustered(t *testing.T) {
	if baseClustered("million-qps", nil) {
		t.Error("million-qps reported clustered")
	}
	if !baseClustered("cluster", nil) {
		t.Error("cluster preset not reported clustered")
	}
	p := figures.Preset{Replicas: 4}
	if !baseClustered("all", &p) {
		t.Error("replicated spec not reported clustered")
	}
	single := figures.Preset{}
	if baseClustered("cluster", &single) {
		t.Error("single-backend spec reported clustered (spec must win over -experiment name)")
	}
}

// TestRunSpecPreset smokes the -spec path end to end: a spec-compiled
// preset runs through the same runPreset code the CLI uses.
func TestRunSpecPreset(t *testing.T) {
	s, err := spec.Load(filepath.Join("..", "..", "examples", "phases-spike.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	p := figures.PresetFromSpec(s)
	if err := runPreset(p, figures.SweepOptions{Runs: 1, Seed: 1, TargetSamples: 300}); err != nil {
		t.Errorf("runPreset(spec): %v", err)
	}
}

func TestRunSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced sweep")
	}
	opts := figures.SweepOptions{Runs: 2, Seed: 2, TargetSamples: 300}
	if err := run("fig6", opts); err != nil {
		t.Errorf("run(fig6): %v", err)
	}
}

// TestShardWarning pins repro's -shards ergonomics warning end to end:
// effectiveReplicas resolves the replica count from the experiment
// name, a spec and -replicas, and a single-backend result (hour-long's
// shape) must warn toward -parallel; replicated shapes and unsharded
// runs stay silent.
func TestShardWarning(t *testing.T) {
	clusterPreset := figures.Preset{Replicas: 4}
	singlePreset := figures.Preset{}
	cases := []struct {
		name     string
		shards   int
		exp      string
		spec     *figures.Preset
		replicas int
		want     bool
	}{
		{name: "unsharded-default", exp: "all"},
		{name: "single-shard", shards: 1, exp: "hour-long"},
		{name: "hour-long-sharded", shards: 2, exp: "hour-long", want: true},
		{name: "million-qps-sharded", shards: 4, exp: "million-qps", want: true},
		{name: "figure-grid-sharded", shards: 2, exp: "all", want: true},
		{name: "cluster-preset-sharded", shards: 4, exp: "cluster"},
		{name: "replicas-flag-spreads-work", shards: 4, exp: "hour-long", replicas: 4},
		{name: "replicated-spec", shards: 4, exp: "all", spec: &clusterPreset},
		{name: "single-backend-spec", shards: 2, exp: "all", spec: &singlePreset, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := cliflags.ShardWarning(tc.shards, effectiveReplicas(tc.exp, tc.spec, tc.replicas))
			if got := w != ""; got != tc.want {
				t.Fatalf("shardWarning emitted %q, want warning=%v", w, tc.want)
			}
			if tc.want && !strings.Contains(w, "-parallel") {
				t.Fatalf("warning %q does not suggest -parallel", w)
			}
		})
	}
}
