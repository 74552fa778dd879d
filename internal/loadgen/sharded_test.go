package loadgen

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/workload"
)

// shardedCfg is the differential-test base: small but exercising every
// client-side mechanism (multiple machines, multiplexed connections,
// warmup filtering).
func shardedCfg(timeSensitive bool) Config {
	return Config{
		Machines:          3,
		ThreadsPerMachine: 2,
		ConnsPerThread:    4,
		RateQPS:           30_000,
		ClientHW:          hw.HPConfig(),
		TimeSensitive:     timeSensitive,
		Warmup:            10 * time.Millisecond,
		Net:               netmodel.DefaultConfig(),
		Payloads:          func(*rng.Stream) PayloadSource { return staticSource{} },
	}
}

func newSynthetic(t *testing.T) services.Backend {
	t.Helper()
	b, err := services.NewSynthetic(services.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runCfg executes two repetitions (reuse across runs is part of the
// contract) and returns both results.
func runCfg(t *testing.T, cfg Config, backend services.Backend, seed uint64) []RunResult {
	t.Helper()
	g, err := New(cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	var out []RunResult
	for rep := 0; rep < 2; rep++ {
		res, err := g.RunOnce(rng.New(seed+uint64(rep)), 60*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func diffResults(t *testing.T, label string, ref, got []RunResult) {
	t.Helper()
	if !reflect.DeepEqual(ref, got) {
		for rep := range ref {
			if ref[rep].Sent != got[rep].Sent || ref[rep].Received != got[rep].Received {
				t.Fatalf("%s rep %d: sent/received %d/%d, want %d/%d",
					label, rep, got[rep].Sent, got[rep].Received, ref[rep].Sent, ref[rep].Received)
			}
			for i := range ref[rep].LatenciesUs {
				if i < len(got[rep].LatenciesUs) && got[rep].LatenciesUs[i] != ref[rep].LatenciesUs[i] {
					t.Fatalf("%s rep %d: latency sample %d = %v, want %v",
						label, rep, i, got[rep].LatenciesUs[i], ref[rep].LatenciesUs[i])
				}
			}
		}
		t.Fatalf("%s: sharded run result diverges from single-engine", label)
	}
}

// TestShardedMatchesSingleEngine pins the tentpole guarantee at the
// generator level: a sharded run's RunResult — every retained sample, in
// order — is byte-identical to the legacy single-engine run at any K,
// for both pacing designs.
func TestShardedMatchesSingleEngine(t *testing.T) {
	for _, ts := range []bool{true, false} {
		cfg := shardedCfg(ts)
		ref := runCfg(t, cfg, newSynthetic(t), 7)
		for _, k := range []int{1, 2, 4} { // partitions = 3 machines + 1 backend
			cfg.Shards = k
			got := runCfg(t, cfg, newSynthetic(t), 7)
			label := "block-wait"
			if !ts {
				label = "busy-wait"
			}
			diffResults(t, label, ref, got)
		}
	}
}

// TestShardedMatchesSingleEngineStreaming repeats the differential with
// streaming recorders: the deterministic reservoir is order-sensitive,
// so this pins that the epoch merge replays samples in exactly the
// single-engine recording order, not merely the same multiset.
func TestShardedMatchesSingleEngineStreaming(t *testing.T) {
	cfg := shardedCfg(true)
	cfg.Recorders = metrics.StreamingFactory(metrics.StreamingConfig{})
	ref := runCfg(t, cfg, newSynthetic(t), 11)
	for _, k := range []int{1, 2, 4} {
		cfg.Shards = k
		diffResults(t, "streaming", ref, runCfg(t, cfg, newSynthetic(t), 11))
	}
}

// TestShardedMatchesSingleEngineMixed covers the class/phase machinery
// through the sharded path.
func TestShardedMatchesSingleEngineMixed(t *testing.T) {
	cfg := shardedCfg(true)
	cfg.Classes = []ClassConfig{
		{Name: "get", Fraction: 0.8},
		{Name: "set", Fraction: 0.2, Arrival: workload.ArrivalConfig{Process: "gamma", CV: 2}},
	}
	cfg.Phases = []PhaseConfig{
		{Duration: 20 * time.Millisecond, RateScale: 1.0},
		{Duration: 20 * time.Millisecond, RateScale: 1.5},
	}
	ref := runCfg(t, cfg, newSynthetic(t), 13)
	for _, k := range []int{1, 2, 4} {
		cfg.Shards = k
		diffResults(t, "mixed", ref, runCfg(t, cfg, newSynthetic(t), 13))
	}
}

func newCluster(t *testing.T, replicas int) *cluster.ReplicaSet {
	t.Helper()
	var backends []services.Backend
	for i := 0; i < replicas; i++ {
		backends = append(backends, newSynthetic(t))
	}
	router, err := cluster.NewRouter(cluster.RouterConsistentHash)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cluster.New(backends, replicas, router, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestShardedMatchesSingleEngineCluster pins the replicated-backend
// path: replicas spread over shards, requests routed at send time, and
// the cluster's routed accounting identical to the single-engine run.
func TestShardedMatchesSingleEngineCluster(t *testing.T) {
	cfg := shardedCfg(true)
	refRS := newCluster(t, 3)
	ref := runCfg(t, cfg, refRS, 17)
	refStats := refRS.Stats()
	for _, k := range []int{1, 2, 4} { // partitions = 3 machines + 3 replicas
		cfg.Shards = k
		rs := newCluster(t, 3)
		got := runCfg(t, cfg, rs, 17)
		diffResults(t, "cluster", ref, got)
		if !reflect.DeepEqual(refStats, rs.Stats()) {
			t.Fatalf("k=%d: cluster stats diverge: %+v vs %+v", k, rs.Stats(), refStats)
		}
	}
}

// TestShardedValidation pins the fail-fast paths.
func TestShardedValidation(t *testing.T) {
	cfg := shardedCfg(true)
	cfg.Shards = -1
	if cfg.Validate() == nil {
		t.Error("negative shard count accepted")
	}
	cfg.Shards = 2
	cfg.TraceEvery = 100
	if cfg.Validate() == nil {
		t.Error("tracing accepted on the sharded path")
	}
	cfg = shardedCfg(true)
	cfg.Shards = 2
	cfg.Net.Base = 0
	if cfg.Validate() == nil {
		t.Error("zero-lookahead network accepted on the sharded path")
	}

	// More shards than machine+replica partitions: run-time error.
	cfg = shardedCfg(true)
	cfg.Shards = 5 // 3 machines + 1 backend = 4 partitions
	g, err := New(cfg, newSynthetic(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunOnce(rng.New(1), 10*time.Millisecond); err == nil {
		t.Error("shard count above partition count accepted")
	}

	// Stateful routing policies cannot run sharded.
	cfg = shardedCfg(true)
	cfg.Shards = 2
	router, err := cluster.NewRouter(cluster.RouterRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cluster.New([]services.Backend{newSynthetic(t), newSynthetic(t)}, 2, router, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err = New(cfg, rs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunOnce(rng.New(1), 10*time.Millisecond); err == nil {
		t.Error("round-robin router accepted on the sharded path")
	}
}
