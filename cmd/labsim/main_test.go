package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cliflags"
)

// TestCheckFlags is the fail-fast table: -spec against spec-owned shape
// flags, and the router/replicas pairing, rejected before any
// simulation starts.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name     string
		set      []string
		spec     string
		replicas int
		router   string
		shards   int
		service  string
		wantErr  string // substring; empty = no error
	}{
		{name: "defaults"},
		{name: "spec-alone", spec: "x.yaml"},
		{name: "spec-smoke-knobs", spec: "x.yaml", set: []string{"rate", "runs", "samples", "seed", "parallel", "samplemode", "point"}},
		{name: "spec-and-preset", spec: "x.yaml", set: []string{"preset"}, wantErr: "-preset"},
		{name: "spec-and-service", spec: "x.yaml", set: []string{"service"}, wantErr: "-service"},
		{name: "spec-and-client", spec: "x.yaml", set: []string{"client"}, wantErr: "-client"},
		{name: "spec-and-server", spec: "x.yaml", set: []string{"server-smt", "server-c1e"}, wantErr: "-server-smt -server-c1e"},
		{name: "spec-and-delay", spec: "x.yaml", set: []string{"delay"}, wantErr: "-delay"},
		{name: "spec-and-cluster", spec: "x.yaml", set: []string{"replicas", "router"}, wantErr: "-replicas -router"},
		{name: "router-and-replicas", replicas: 4, router: "consistent-hash"},
		{name: "router-no-replicas", router: "round-robin", wantErr: "requires -replicas"},
		{name: "unknown-router", replicas: 2, router: "random", wantErr: "router"},
		{name: "negative-replicas", replicas: -2, wantErr: "≥ 0"},
		{name: "spec-and-shards", spec: "x.yaml", set: []string{"shards"}, wantErr: "-shards"},
		{name: "shards-unset-default"},
		{name: "shards-valid", set: []string{"shards"}, shards: 4, service: "memcached"},
		{name: "shards-zero-explicit", set: []string{"shards"}, wantErr: "-shards must be ≥ 1"},
		{name: "shards-negative", set: []string{"shards"}, shards: -2, wantErr: "-shards must be ≥ 1"},
		{name: "shards-over-partitions", set: []string{"shards"}, shards: 6, service: "memcached", wantErr: "partitions"},
		{name: "shards-over-partitions-small-client", set: []string{"shards"}, shards: 3, service: "hdsearch", wantErr: "partitions"},
		{name: "shards-with-replicas", set: []string{"shards"}, shards: 6, replicas: 3, router: "consistent-hash", service: "memcached"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, name := range tc.set {
				set[name] = true
			}
			err := checkFlags(set, tc.spec, tc.replicas, tc.router, tc.shards, tc.service)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("checkFlags = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("checkFlags = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckResilienceFlags pins labsim's fail-fast contract for the
// client resilience knobs, which it checks through the shared
// cliflags.CheckResilience (whose merged table lives in that package):
// negatives, dependent flags and the hedge/timeout ordering are rejected
// before any simulation starts.
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

// TestShardWarning pins labsim's -shards ergonomics warning (the shared
// cliflags.ShardWarning on the resolved -replicas): a single-backend
// topology must warn toward -parallel; replicated shapes and unsharded
// runs stay silent.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := cliflags.ShardWarning(tc.shards, tc.replicas)
			if got := w != ""; got != tc.want {
				t.Fatalf("shardWarning emitted %q, want warning=%v", w, tc.want)
			}
			if tc.want && !strings.Contains(w, "-parallel") {
				t.Fatalf("warning %q does not suggest -parallel", w)
			}
		})
	}
}
