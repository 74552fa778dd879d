package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// resolve parses one command line of a stand-in command whose -preset
// names its base and whose -client selects its shape, and resolves and
// validates it as both real commands do.
func resolve(args string) error {
	fs := flag.NewFlagSet("cliflags", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("preset", "", "base preset name")
	fs.String("client", "", "a shape flag")
	f := Register(fs, 1, 0)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return err
	}
	base, err := f.Base("preset", "client")
	if err != nil {
		return err
	}
	_, _, err = f.Options(base)
	return err
}

// argvCase is one command line and a substring of the error it must
// raise ("" = accepted).
type argvCase struct{ name, args, wantErr string }

func runArgvCases(t *testing.T, cases []argvCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := resolve(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("%s: %v, want accepted", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%s: %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestCheckFlags is the flag layer's fail-fast table, resolved against
// no base, a named preset or a spec: the base's shape conflicts,
// -router without a fleet, negatives, an explicit -shards 0, and
// everything the scenario validator rejects once the overrides apply.
func TestCheckFlags(t *testing.T) {
	const (
		clusterSpec = "-spec ../../examples/cluster.yaml "
		singleSpec  = "-spec ../../examples/phases-spike.yaml "
	)
	runArgvCases(t, []argvCase{
		{"defaults", "", ""},
		{"spec-alone", clusterSpec, ""},
		{"spec-missing", "-spec ../../examples/missing.yaml", "missing.yaml"},
		{"spec-and-name", clusterSpec + "-preset cluster", "-preset conflict with -spec"},
		{"spec-and-shape", clusterSpec + "-client HP", "-client conflict with -spec"},
		{"spec-lists-applying-flags", clusterSpec + "-client HP",
			"(it owns the scenario shape; -hedge -parallel -replicas -retries -router -runs -samplemode -samples -seed -shards -timeout still apply)"},
		{"spec-overrides", clusterSpec + "-replicas 2 -router consistent-hash -shards 6 -runs 1 -samples 300", ""},
		{"preset-and-shape", "-preset cluster -client HP", "-client conflict with -preset"},
		{"preset-case-insensitive", "-preset CLUSTER -router round-robin", ""},
		{"unknown-name-no-base", "-preset all -shards 16", ""},
		{"bad-samplemode", "-samplemode fast", "unknown sample mode"},
		{"negative-runs", "-runs -1", "-runs must be ≥ 0"},
		{"negative-samples", "-samples -1", "-samples must be ≥ 0"},
		{"negative-replicas", "-replicas -1", "-replicas must be ≥ 0"},
		{"replicas-no-router", "-replicas 4", ""},
		{"router-and-replicas", "-replicas 4 -router round-robin", ""},
		{"router-no-replicas", "-router round-robin", "requires -replicas"},
		{"router-clustered-preset", "-preset cluster -router least-outstanding", ""},
		{"router-clustered-spec", clusterSpec + "-router round-robin", ""},
		{"router-single-backend-preset", "-preset million-qps -router round-robin", "requires -replicas"},
		{"router-single-backend-spec", singleSpec + "-router round-robin", "requires -replicas"},
		{"unknown-router", "-replicas 4 -router random", "unknown router"},
		{"unknown-router-clustered", "-preset cluster -router random", "unknown router"},
		{"shards-valid", "-preset cluster -shards 4", ""},
		{"shards-zero-explicit", "-shards 0", "-shards must be ≥ 1, got 0"},
		{"shards-negative", "-shards -1", "-shards must be ≥ 1, got -1"},
		{"shards-unknown-partitions", "-shards 16", ""},
		{"shards-over-partitions", "-preset million-qps -shards 6", "6 shards exceed the 5 machine+replica partitions"},
		{"shards-replicas-flag", "-preset million-qps -replicas 3 -router consistent-hash -shards 7", ""},
		{"shards-over-replicas-flag", "-preset million-qps -replicas 3 -router consistent-hash -shards 8", "exceed the 7"},
		{"shards-over-sharded-preset", "-preset sharded -shards 9", "exceed the 8"},
		{"shards-over-spec", "-spec ../../examples/straggler.yaml -shards 8", "exceed the 7"},
		{"router-cannot-shard", "-preset cluster -shards 2 -router round-robin", "cannot run sharded"},
		{"router-cannot-one-shard", "-preset cluster -shards 1 -router round-robin", "cannot run sharded"},
	})
}

// TestCheckResilienceFlags is the fail-fast table for the client
// resilience knobs, resolved against no base, a named preset or a spec:
// negatives, dependent flags and the hedge/timeout ordering are
// rejected before any simulation starts.
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
		{"hedge-above-timeout", "-timeout 1ms -hedge 2ms", "below the timeout"},
		{"hedge-above-base-timeout", "-preset faulty-cluster -hedge 3ms", "below the timeout"},
		{"retries-plain-preset", "-preset million-qps -retries 2", "require a request timeout"},
		{"retries-resilient-spec", "-spec ../../examples/faulty-cluster.yaml -retries 1", ""},
		{"retries-plain-spec", "-spec ../../examples/cluster.yaml -retries 1", "require a request timeout"},
		{"hedge-round-robin-preset", "-preset cluster -router round-robin -timeout 2ms -hedge 1ms", "require the \"consistent-hash\" router"},
	})
}

// TestShardWarning is the ergonomics table: -shards on a single-backend
// topology (the hour-long preset's shape, which runs near the sharding
// break-even) must warn toward -parallel; replicated shapes and
// unsharded runs stay silent. replicas is the count after preset, spec
// and -replicas resolution.
func TestShardWarning(t *testing.T) {
	cases := []struct {
		name     string
		shards   int
		replicas int
		want     bool
	}{
		{name: "unsharded-default"},
		{name: "single-shard", shards: 1},
		{name: "sharded-single-backend", shards: 2, want: true},
		{name: "sharded-one-replica", shards: 4, replicas: 1, want: true},
		{name: "sharded-replicated", shards: 4, replicas: 4},
		{name: "hour-long-sharded", shards: 2, want: true},
		{name: "million-qps-sharded", shards: 4, want: true},
		{name: "figure-grid-sharded", shards: 2, want: true},
		{name: "cluster-preset-sharded", shards: 4, replicas: 4},
		{name: "replicas-flag-spreads-work", shards: 4, replicas: 4},
		{name: "replicated-spec", shards: 4, replicas: 4},
		{name: "single-backend-spec", shards: 2, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := ShardWarning(tc.shards, tc.replicas)
			if got := w != ""; got != tc.want {
				t.Fatalf("ShardWarning emitted %q, want warning=%v", w, tc.want)
			}
			if tc.want && !strings.Contains(w, "-parallel") {
				t.Fatalf("warning %q does not suggest -parallel", w)
			}
		})
	}
}
