package cliflags

import (
	"strings"
	"testing"
	"time"
)

// TestCheckResilienceFlags is the fail-fast table for the client
// resilience knobs: negatives, dependent flags and the hedge/timeout
// ordering are rejected before any simulation starts.
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
			err := CheckResilience(tc.timeout, tc.retries, tc.hedge, tc.resilient)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckResilience = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckResilience = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
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
