package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/figures"
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

// parseArgs parses one repro command line, given as a single string.
func parseArgs(args string) (command, error) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, strings.Fields(args))
}

// argvCase is one command line and a substring of the error it must
// raise before any sweep starts ("" = accepted).
type argvCase struct{ name, args, wantErr string }

func runArgvCases(t *testing.T, cases []argvCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("repro %s: %v, want accepted", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("repro %s: %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestCheckFlags is the fail-fast table: bad flag combinations must be
// rejected at startup, before any sweep runs, as must a spec whose rate
// could not run.
func TestCheckFlags(t *testing.T) {
	hugeRate := filepath.Join(t.TempDir(), "huge-rate.yaml")
	if err := os.WriteFile(hugeRate, []byte("version: 1\nname: huge\nservice: memcached\nrate: 1e12\nruns: 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runArgvCases(t, []argvCase{
		{"defaults", "", ""},
		{"spec-alone", "-spec ../../examples/cluster.yaml", ""},
		{"spec-and-experiment", "-spec ../../examples/cluster.yaml -experiment cluster", "-experiment conflict with -spec"},
		{"experiment-alone", "-experiment fig6", ""},
		{"replicas-no-router", "-replicas 4", ""},
		{"router-and-replicas", "-replicas 4 -router round-robin", ""},
		{"router-no-replicas", "-router round-robin", "requires -replicas"},
		{"router-clustered-preset", "-experiment cluster -router least-outstanding", ""},
		{"unknown-router", "-replicas 4 -router random", "unknown router"},
		{"unknown-router-clustered", "-experiment cluster -router random", "unknown router"},
		{"negative-replicas", "-replicas -1", "-replicas must be ≥ 0"},
		{"shards-valid", "-experiment cluster -shards 4", ""},
		{"shards-zero-explicit", "-shards 0", "-shards must be ≥ 1"},
		{"shards-negative", "-shards -1", "-shards must be ≥ 1"},
		{"shards-over-partitions", "-experiment million-qps -shards 6", "exceed the 5 machine+replica partitions"},
		{"shards-unknown-partitions", "-shards 16", ""},
		{"router-cannot-shard", "-experiment cluster -shards 2 -router round-robin", "cannot run sharded"},
		{"spec-rate-above-max", "-spec " + hugeRate + " -samples 200", "got 1e+12"},
	})
}

// TestCheckResilienceFlags pins repro's fail-fast contract for the
// client resilience knobs: negatives, dependent flags and the
// hedge/timeout ordering are rejected before any sweep runs.
func TestCheckResilienceFlags(t *testing.T) {
	runArgvCases(t, []argvCase{
		{"defaults", "", ""},
		{"timeout-alone", "-timeout 1ms", ""},
		{"full-stack", "-timeout 2ms -retries 3 -hedge 1ms", ""},
		{"negative-timeout", "-timeout -1ms", "-timeout must be ≥ 0"},
		{"negative-retries", "-retries -1", "-retries must be ≥ 0"},
		{"negative-hedge", "-hedge -1ms", "-hedge must be ≥ 0"},
		{"retries-no-timeout", "-retries 2", "require a request timeout"},
		{"hedge-no-timeout", "-hedge 1ms", "require a request timeout"},
		{"retries-resilient-base", "-experiment faulty-cluster -retries 2", ""},
		{"hedge-resilient-base", "-experiment faulty-cluster -hedge 1ms", ""},
		{"hedge-at-timeout", "-timeout 1ms -hedge 1ms", "below the timeout"},
		{"hedge-above-timeout", "-timeout 1ms -hedge 2ms", "below the timeout"},
	})
}

// TestBaseResilient pins which invocations make a bare -retries/-hedge
// legal: the preset or spec must already carry a resilience timeout.
func TestBaseResilient(t *testing.T) {
	runArgvCases(t, []argvCase{
		{"plain-preset", "-experiment million-qps -retries 2", "require a request timeout"},
		{"resilient-preset", "-experiment faulty-cluster -retries 2", ""},
		{"resilient-spec", "-spec ../../examples/faulty-cluster.yaml -retries 2", ""},
		{"plain-spec", "-spec ../../examples/cluster.yaml -retries 2", "require a request timeout"},
	})
}

// TestBasePartitions pins the shard ceiling a preset or spec invocation
// is checked against at startup: client machines plus replicas, after
// -replicas; a figure grid mixes services and leaves it to each cell.
func TestBasePartitions(t *testing.T) {
	runArgvCases(t, []argvCase{
		{"figure-grid", "-shards 16", ""},
		{"million-qps", "-experiment million-qps -shards 5", ""},
		{"million-qps-over", "-experiment million-qps -shards 6", "partitions"},
		{"sharded", "-experiment sharded -shards 8", ""},
		{"sharded-over", "-experiment sharded -shards 9", "partitions"},
		{"replicas-flag", "-experiment million-qps -replicas 3 -router consistent-hash -shards 7", ""},
		{"replicas-flag-over", "-experiment million-qps -replicas 3 -router consistent-hash -shards 8", "partitions"},
		{"spec", "-spec ../../examples/straggler.yaml -shards 7", ""},
		{"spec-over", "-spec ../../examples/straggler.yaml -shards 8", "partitions"},
	})
}

// TestBaseClustered pins which invocations make a bare -router legal:
// the preset or spec must already run a replica set.
func TestBaseClustered(t *testing.T) {
	runArgvCases(t, []argvCase{
		{"single-backend-preset", "-experiment million-qps -router round-robin", "requires -replicas"},
		{"clustered-preset", "-experiment cluster -router round-robin", ""},
		{"replicated-spec", "-spec ../../examples/cluster.yaml -router round-robin", ""},
		{"single-backend-spec", "-spec ../../examples/phases-spike.yaml -router round-robin", "requires -replicas"},
	})
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
// the replica count resolves from the experiment, a spec and -replicas,
// and a single-backend result (hour-long's shape) must warn toward
// -parallel; replicated shapes and unsharded runs stay silent.
func TestShardWarning(t *testing.T) {
	cases := []struct {
		name, args string
		want       bool
	}{
		{"unsharded-default", "", false},
		{"single-shard", "-experiment hour-long -shards 1", false},
		{"hour-long-sharded", "-experiment hour-long -shards 2", true},
		{"million-qps-sharded", "-experiment million-qps -shards 4", true},
		{"figure-grid-sharded", "-shards 2", true},
		{"cluster-preset-sharded", "-experiment cluster -shards 4", false},
		{"replicas-flag-spreads-work", "-experiment hour-long -shards 4 -replicas 4 -router consistent-hash", false},
		{"replicated-spec", "-spec ../../examples/cluster.yaml -shards 4", false},
		{"single-backend-spec", "-spec ../../examples/phases-spike.yaml -shards 2", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseArgs(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.warning != ""; got != tc.want {
				t.Fatalf("repro %s warned %q, want warning=%v", tc.args, c.warning, tc.want)
			}
			if tc.want && !strings.Contains(c.warning, "-parallel") {
				t.Fatalf("warning %q does not suggest -parallel", c.warning)
			}
		})
	}
}
