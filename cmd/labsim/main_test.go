package main

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/spec"
)

// parseArgs resolves one labsim command line, given as a single string.
func parseArgs(args string) (experiment.Scenario, string, error) {
	fs := flag.NewFlagSet("labsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return scenario(fs, strings.Fields(args))
}

// argvCase is one command line and a substring of the error it must
// raise before any simulation starts ("" = accepted).
type argvCase struct{ name, args, wantErr string }

func runArgvCases(t *testing.T, cases []argvCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseArgs(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("labsim %s: %v, want accepted", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("labsim %s: %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestCheckFlags is the fail-fast table: -spec against the shape flags
// it owns, and the fleet and engine flags, rejected before any
// simulation starts. -replicas, -router and -shards override a spec's
// shape, as they do in repro.
func TestCheckFlags(t *testing.T) {
	const sp = "-spec ../../examples/onoff-sessions.yaml "
	runArgvCases(t, []argvCase{
		{"defaults", "", ""},
		{"spec-alone", sp, ""},
		{"spec-smoke-knobs", sp + "-rate 5000 -runs 2 -samples 300 -seed 3 -parallel 2 -samplemode exact -point nic", ""},
		{"spec-and-preset", sp + "-preset cluster", "-preset conflict with -spec"},
		{"spec-and-service", sp + "-service hdsearch", "-service conflict"},
		{"spec-and-client", sp + "-client HP", "-client conflict"},
		{"spec-and-server", sp + "-server-smt -server-c1e", "-server-c1e -server-smt conflict"},
		{"spec-and-delay", sp + "-delay 1ms", "-delay conflict"},
		{"spec-and-cluster", sp + "-replicas 4 -router consistent-hash", ""},
		{"router-and-replicas", "-replicas 4 -router consistent-hash", ""},
		{"router-no-replicas", "-router round-robin", "requires -replicas"},
		{"unknown-router", "-replicas 2 -router random", "unknown router"},
		{"negative-replicas", "-replicas -2", "-replicas must be ≥ 0"},
		{"spec-and-shards", sp + "-shards 2", ""},
		{"shards-unset-default", "", ""},
		{"shards-valid", "-shards 4", ""},
		{"shards-zero-explicit", "-shards 0", "-shards must be ≥ 1"},
		{"shards-negative", "-shards -2", "-shards must be ≥ 1"},
		{"shards-over-partitions", "-shards 6", "exceed the 5 machine+replica partitions"},
		{"shards-over-partitions-small-client", "-service hdsearch -shards 3", "exceed the 2 machine+replica partitions"},
		{"shards-with-replicas", "-shards 6 -replicas 3 -router consistent-hash", ""},
		{"spec-shards-over-partitions", sp + "-shards 6", "partitions"},
		{"preset-and-client", "-preset cluster -client LP", "-client conflict with -preset"},
		{"preset-smoke-knobs", "-preset cluster -rate 5000 -runs 1 -samples 300 -point nic -replicas 2", ""},
		{"unknown-preset", "-preset terabit-qps", "unknown preset"},
		{"rate-nan", "-rate NaN -runs 1 -samples 200", "got NaN"},
		{"rate-plus-inf", "-rate +Inf -runs 1 -samples 200", "got +Inf"},
		{"rate-tiny", "-rate 1e-300 -runs 1 -samples 200", "rate 1e-300 QPS makes a 200-sample run longer"},
		{"rate-above-max", "-rate 1e12", "got 1e+12"},
		{"preset-rate-above-max", "-preset cluster -rate 1e12", "got 1e+12"},
		{"spec-rate-tiny", sp + "-rate 1e-300", "rate 1e-300 QPS"},
		{"delay-negative", "-service synthetic -delay -5us", "negative synthetic delay -5µs"},
		{"delay-on-memcached", "-delay 100us", "synthetic delay 100µs set on the memcached service"},
		{"delay-on-synthetic", "-service synthetic -delay 100us", ""},
	})
}

// TestCheckResilienceFlags pins labsim's fail-fast contract for the
// client resilience knobs: negatives, dependent flags and the
// hedge/timeout ordering are rejected before any simulation starts.
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
		{"retries-resilient-base", "-preset faulty-cluster -retries 2", ""},
		{"hedge-resilient-base", "-preset faulty-cluster -hedge 1ms", ""},
		{"hedge-at-timeout", "-timeout 1ms -hedge 1ms", "below the timeout"},
		{"spec-retries", "-spec ../../examples/cluster.yaml -timeout 2ms -retries 1", ""},
	})
}

// TestShardWarning pins labsim's -shards ergonomics warning on the
// resolved replica count: a single-backend topology must warn toward
// -parallel; replicated shapes and unsharded runs stay silent.
func TestShardWarning(t *testing.T) {
	cases := []struct {
		name, args string
		want       bool
	}{
		{"unsharded-default", "", false},
		{"single-shard", "-shards 1", false},
		{"sharded-single-backend", "-shards 2", true},
		{"sharded-one-replica", "-shards 4 -replicas 1", true},
		{"sharded-replicated", "-shards 4 -replicas 4 -router consistent-hash", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, warning, err := parseArgs(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			if (warning != "") != tc.want {
				t.Fatalf("labsim %s warned %q, want warning=%v", tc.args, warning, tc.want)
			}
			if tc.want && !strings.Contains(warning, "-parallel") {
				t.Fatalf("warning %q does not suggest -parallel", warning)
			}
		})
	}
}

// TestShapeFlagLabels pins the label of the scenario labsim's shape
// flags describe: the client's name alone, since the base has no name.
// The label names each run's random stream.
func TestShapeFlagLabels(t *testing.T) {
	for _, tc := range []struct{ args, label string }{
		{"", "LP"},
		{"-client HP", "HP"},
	} {
		got, _, err := parseArgs(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		if got.Label != tc.label {
			t.Errorf("labsim %s: label %q, want %q", tc.args, got.Label, tc.label)
		}
	}
}

// TestPresetAndSpecScenarios pins labsim's -preset and -spec paths to
// the scenario figures.RunPreset runs at the peak rate, so labsim and
// repro -experiment/-spec report the same numbers for the same seed:
// at labsim's defaults (the base's own runs and samples) and at smoke
// size.
func TestPresetAndSpecScenarios(t *testing.T) {
	type base struct {
		name, args string
		preset     figures.Preset
	}
	var bases []base
	for _, p := range figures.Presets() {
		bases = append(bases, base{"preset-" + p.Name, "-preset " + p.Name, p})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	for _, file := range files {
		s, err := spec.Load(file)
		if err != nil {
			t.Fatal(err)
		}
		name := "spec-" + strings.TrimSuffix(filepath.Base(file), ".yaml")
		bases = append(bases, base{name, "-spec " + file, figures.PresetFromSpec(s)})
	}
	sizes := []struct {
		name, args string
		opts       figures.SweepOptions
	}{
		{"defaults", "", figures.SweepOptions{Seed: 1}},
		{"smoke", " -seed 2024 -runs 1 -samples 2000", figures.SweepOptions{Seed: 2024, Runs: 1, TargetSamples: 2000}},
	}
	for _, b := range bases {
		for _, size := range sizes {
			t.Run(b.name+"/"+size.name, func(t *testing.T) {
				got, _, err := parseArgs(b.args + size.args)
				if err != nil {
					t.Fatal(err)
				}
				p := b.preset
				want := figures.PresetScenario(p, p.Rates[len(p.Rates)-1], size.opts)
				want.Point, want.Workers = got.Point, got.Workers
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("labsim %s resolved\n%+v\nwant\n%+v", b.args+size.args, got, want)
				}
			})
		}
	}
}
