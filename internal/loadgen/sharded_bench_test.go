package loadgen

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
)

// benchShardedCfg is the million-QPS replicated shape the sharding layer
// targets (the `sharded` figure preset's topology): 4 client machines ×
// 2 threads × 8 conns against 4 Memcached replicas behind consistent
// hashing — 8 partitions, so K=4 balances two per shard. Streaming
// recorders keep the per-iteration footprint flat, as the hour-long
// preset does.
func benchShardedCfg(k int) Config {
	return Config{
		Machines:          4,
		ThreadsPerMachine: 2,
		ConnsPerThread:    8,
		RateQPS:           1_000_000,
		ClientHW:          hw.HPConfig(),
		TimeSensitive:     true,
		Warmup:            2 * time.Millisecond,
		Net:               netmodel.DefaultConfig(),
		Payloads:          func(*rng.Stream) PayloadSource { return staticSource{} },
		Recorders:         metrics.StreamingFactory(metrics.StreamingConfig{}),
		Shards:            k,
	}
}

func benchCluster(tb testing.TB, replicas int) *cluster.ReplicaSet {
	tb.Helper()
	var backends []services.Backend
	for i := 0; i < replicas; i++ {
		b, err := services.NewSynthetic(services.DefaultSyntheticConfig())
		if err != nil {
			tb.Fatal(err)
		}
		backends = append(backends, b)
	}
	router, err := cluster.NewRouter(cluster.RouterConsistentHash)
	if err != nil {
		tb.Fatal(err)
	}
	rs, err := cluster.New(backends, replicas, router, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// benchmarkShardedRun drives repeated 20 ms-virtual runs (~20K requests
// each at 1M QPS) through one generator, reusing machines and backend
// across iterations exactly as a sweep does.
func benchmarkShardedRun(b *testing.B, k int) {
	g, err := New(benchShardedCfg(k), benchCluster(b, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.RunOnce(rng.New(uint64(i)+1), 20*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedRun1(b *testing.B) { benchmarkShardedRun(b, 1) }
func BenchmarkShardedRun2(b *testing.B) { benchmarkShardedRun(b, 2) }
func BenchmarkShardedRun4(b *testing.B) { benchmarkShardedRun(b, 4) }

// benchmarkShardedLowRate is the break-even tracker for the epoch
// barrier work: at 100K QPS only ~0.26 events land per epoch per shard
// (rate × 2.6 µs lookahead), so the run is nearly all barrier + mailbox
// overhead and the 1-vs-4-shard ratio locates the sharding break-even.
// Read by hand or profiled rather than hard-gated — the crossover point
// is a hardware fact, not a correctness one. 50 ms
// virtual per iteration → ~5K requests, enough epochs to dominate setup.
func benchmarkShardedLowRate(b *testing.B, k int) {
	cfg := benchShardedCfg(k)
	cfg.RateQPS = 100_000
	g, err := New(cfg, benchCluster(b, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.RunOnce(rng.New(uint64(i)+1), 50*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedRunLowRate1(b *testing.B) { benchmarkShardedLowRate(b, 1) }
func BenchmarkShardedRunLowRate4(b *testing.B) { benchmarkShardedLowRate(b, 4) }

// TestShardedLowRateBreakEven reports (never gates) where the 100K-QPS
// shape sits relative to break-even, so the ROADMAP numbers have a
// reproducible source. A ratio ≥ 1 means 4 shards already pay for the
// barrier at this rate.
func TestShardedLowRateBreakEven(t *testing.T) {
	if testing.Short() {
		t.Skip("timing report skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful ratio, have %d", runtime.NumCPU())
	}
	run := func(k int) float64 {
		cfg := benchShardedCfg(k)
		cfg.RateQPS = 100_000
		g, err := New(cfg, benchCluster(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.RunOnce(rng.New(99), 10*time.Millisecond); err != nil { // warm pools
			t.Fatal(err)
		}
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := g.RunOnce(rng.New(uint64(rep)+1), 200*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if s := time.Since(start).Seconds(); rep == 0 || s < best {
				best = s
			}
		}
		return best
	}
	serial := run(1)
	sharded := run(4)
	t.Logf("100K QPS: 1-shard %.3fs, 4-shard %.3fs — ratio %.2f× (≥1 means sharding pays at this rate)",
		serial, sharded, serial/sharded)
}

// shardedRunSeconds times one warm run of dur virtual time at K shards,
// best of three to shed scheduler noise.
func shardedRunSeconds(t *testing.T, k int, dur time.Duration) float64 {
	t.Helper()
	g, err := New(benchShardedCfg(k), benchCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunOnce(rng.New(99), 5*time.Millisecond); err != nil { // warm pools
		t.Fatal(err)
	}
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		if _, err := g.RunOnce(rng.New(uint64(rep)+1), dur); err != nil {
			t.Fatal(err)
		}
		if s := time.Since(start).Seconds(); rep == 0 || s < best {
			best = s
		}
	}
	return best
}

// TestShardedRunSpeedupAt4Shards is the PR's wall-clock gate: a
// million-QPS replicated run must complete ≥2× faster at -shards 4 than
// at -shards 1. The win scales with events-per-epoch ≈ event rate ×
// lookahead (~2.6 µs for the default link), so the gate pins the
// high-rate replicated shape sharding exists for; single-backend
// topologies such as hour-long's concentrate all server work on one
// shard and cap below this bar (see ROADMAP "Sharded engines" — use
// -parallel across reps there). Skipped below 4 hardware threads:
// conservative sync cannot beat 2× without ≥4 cores to run the shards.
func TestShardedRunSpeedupAt4Shards(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥4 CPUs for a 4-shard speedup gate, have %d", runtime.NumCPU())
	}
	const dur = 100 * time.Millisecond // ~100K requests at 1M QPS
	serial := shardedRunSeconds(t, 1, dur)
	sharded := shardedRunSeconds(t, 4, dur)
	speedup := serial / sharded
	t.Logf("1-shard %.3fs, 4-shard %.3fs: speedup %.2f×", serial, sharded, speedup)
	if speedup < 2 {
		t.Errorf("4-shard speedup %.2f× below the 2× gate (1 shard %.3fs, 4 shards %.3fs)",
			speedup, serial, sharded)
	}
}
