package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workload"
)

// --- Router policies ---

func kvReq(rank int) *services.Request {
	return &services.Request{HasKV: true, KV: workload.KVRequest{Op: workload.OpGet, Rank: rank}}
}

// hashString is FNV-1a over s, salted per run: the oracle for rankHash,
// which hashes the same bytes without building the key string.
func hashString(salt uint64, s string) uint64 {
	h := uint64(14695981039346656037) ^ salt
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// TestRankHashMatchesKeyString pins the consistent-hash router's key hash
// to FNV-1a over the formatted key string at every digit-group boundary
// and at both ends of the 12-digit rank range, under the extreme salts.
func TestRankHashMatchesKeyString(t *testing.T) {
	for _, salt := range []uint64{0, 1, math.MaxUint64} {
		for _, rank := range []int{0, 9, 10, 9_999, 10_000, 99_999, 100_000, 99_999_999,
			100_000_000, 100_000_000_000, 999_999_999_999} {
			if got, want := rankHash(salt, rank), hashString(salt, fmt.Sprintf("etc-%012d", rank)); got != want {
				t.Errorf("rankHash(%#x, %d) = %#x, want %#x", salt, rank, got, want)
			}
		}
	}
}

// FuzzRankHashMatchesKeyString checks rankHash against the key string's
// hash for any salt and any rank in [0, 10¹²).
func FuzzRankHashMatchesKeyString(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(99_999))
	f.Add(uint64(math.MaxUint64), uint64(999_999_999_999))
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(123_456_789_012))
	f.Fuzz(func(t *testing.T, salt, r uint64) {
		rank := int(r % 1_000_000_000_000)
		if got, want := rankHash(salt, rank), hashString(salt, fmt.Sprintf("etc-%012d", rank)); got != want {
			t.Fatalf("rankHash(%#x, %d) = %#x, want %#x", salt, rank, got, want)
		}
	})
}

func TestNewRouter(t *testing.T) {
	for _, name := range []string{"", RouterRoundRobin, RouterLeastOutstanding, RouterConsistentHash} {
		if _, err := NewRouter(name); err != nil {
			t.Errorf("NewRouter(%q): %v", name, err)
		}
	}
	if _, err := NewRouter("random"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	r, _ := NewRouter(RouterRoundRobin)
	r.Reset(rng.New(1))
	r.Resize(3)
	out := make([]int, 3)
	for i := 0; i < 9; i++ {
		if got := r.Pick(kvReq(0), out); got != i%3 {
			t.Fatalf("pick %d = %d, want %d", i, got, i%3)
		}
	}
}

func TestLeastOutstandingPicksArgmin(t *testing.T) {
	r, _ := NewRouter(RouterLeastOutstanding)
	r.Reset(rng.New(1))
	r.Resize(3)
	if got := r.Pick(kvReq(0), []int{2, 0, 1}); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	// Ties break to the lowest index.
	if got := r.Pick(kvReq(0), []int{1, 1, 1}); got != 0 {
		t.Errorf("tie pick = %d, want 0", got)
	}
}

func TestConsistentHashDeterministicAndKeyStable(t *testing.T) {
	r, _ := NewRouter(RouterConsistentHash)
	r.Reset(rng.New(7))
	r.Resize(4)
	out := make([]int, 4)
	const keys = 512
	first := make([]int, keys)
	for rank := range first {
		first[rank] = r.Pick(kvReq(rank), out)
	}
	// Same key → same replica, regardless of interleaving.
	for rank := range first {
		if got := r.Pick(kvReq(rank), out); got != first[rank] {
			t.Fatalf("key rank %d moved %d → %d within a run", rank, first[rank], got)
		}
	}
	// Same seed → same mapping; different seed → (almost surely) different.
	r2, _ := NewRouter(RouterConsistentHash)
	r2.Reset(rng.New(7))
	r2.Resize(4)
	same := true
	for rank := range first {
		if r2.Pick(kvReq(rank), out) != first[rank] {
			same = false
			break
		}
	}
	if !same {
		t.Error("same stream produced a different ring")
	}
}

func TestConsistentHashStableUnderResize(t *testing.T) {
	r, _ := NewRouter(RouterConsistentHash)
	r.Reset(rng.New(11))
	r.Resize(3)
	out3, out4 := make([]int, 3), make([]int, 4)
	const keys = 2000
	before := make([]int, keys)
	for rank := range before {
		before[rank] = r.Pick(kvReq(rank), out3)
	}
	// Adding replica 3 must only move keys onto the new replica.
	r.Resize(4)
	moved := 0
	for rank := range before {
		got := r.Pick(kvReq(rank), out4)
		if got != before[rank] {
			if got != 3 {
				t.Fatalf("key rank %d moved %d → %d on scale-out (not to the new replica)", rank, before[rank], got)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Error("no keys moved to the new replica — ring not rebuilt?")
	}
	if moved > keys/2 {
		t.Errorf("%d/%d keys moved on scale-out, want ≈1/4", moved, keys)
	}
	// Removing it restores the original mapping exactly.
	r.Resize(3)
	for rank := range before {
		if got := r.Pick(kvReq(rank), out3); got != before[rank] {
			t.Fatalf("key rank %d at %d after scale-in, want %d", rank, got, before[rank])
		}
	}
}

func TestConsistentHashFallsBackToConn(t *testing.T) {
	r, _ := NewRouter(RouterConsistentHash)
	r.Reset(rng.New(3))
	r.Resize(4)
	out := make([]int, 4)
	req := &services.Request{Conn: 17}
	first := r.Pick(req, out)
	for i := 0; i < 10; i++ {
		if got := r.Pick(req, out); got != first {
			t.Fatal("conn-hashed request moved between replicas")
		}
	}
}

// --- ReplicaSet construction ---

func newMemcachedReplicas(t testing.TB, n int) []services.Backend {
	t.Helper()
	replicas := make([]services.Backend, n)
	for i := range replicas {
		m, err := services.NewMemcached(services.DefaultMemcachedConfig())
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = m
	}
	return replicas
}

func TestNewValidation(t *testing.T) {
	rr, _ := NewRouter(RouterRoundRobin)
	if _, err := New(nil, 1, rr, nil); err == nil {
		t.Error("empty replica list accepted")
	}
	reps := newMemcachedReplicas(t, 2)
	if _, err := New(reps, 1, nil, nil); err == nil {
		t.Error("nil router accepted")
	}
	if _, err := New(reps, 3, rr, nil); err == nil {
		t.Error("initial beyond capacity accepted")
	}
	bad := DefaultAutoscalerConfig(1, 3) // max ≠ capacity
	if _, err := New(reps, 1, rr, &bad); err == nil {
		t.Error("autoscaler max ≠ capacity accepted")
	}
	good := DefaultAutoscalerConfig(1, 2)
	if _, err := New(reps, 1, rr, &good); err != nil {
		t.Errorf("valid autoscaled set rejected: %v", err)
	}
}

// --- Load-generation helpers (mirrors the experiment package's
// Memcached deployment, scaled down for test speed) ---

type etcSource struct{ etc *workload.ETC }

func (s etcSource) Next() (any, int) {
	kv, n := s.NextKV()
	return kv, n
}

func (s etcSource) NextKV() (workload.KVRequest, int) {
	kv := s.etc.Next()
	size := 40 + workload.KeyBytes
	if kv.Op == workload.OpSet {
		size += kv.ValueSize
	}
	return kv, size
}

// memcachedETCConfig mirrors the workload NewMemcached derives from the
// default instance configuration.
func memcachedETCConfig() workload.ETCConfig {
	cfg := workload.DefaultETCConfig()
	cfg.Keys = services.DefaultMemcachedConfig().Keys
	return cfg
}

func memcachedGenConfig(etcCfg workload.ETCConfig, rate float64) loadgen.Config {
	return loadgen.Config{
		Machines:          1,
		ThreadsPerMachine: 1,
		ConnsPerThread:    16,
		RateQPS:           rate,
		ClientHW:          hw.ServerBaselineConfig(),
		TimeSensitive:     true,
		Net:               netmodel.DefaultConfig(),
		Warmup:            2 * time.Millisecond,
		Payloads: func(stream *rng.Stream) loadgen.PayloadSource {
			etc, err := workload.NewETC(etcCfg, stream)
			if err != nil {
				panic(err)
			}
			return etcSource{etc}
		},
	}
}

// TestSingleReplicaByteIdentical pins the wrapper's zero-cost guarantee:
// a one-replica ReplicaSet produces byte-identical run results to the
// unwrapped backend under the identical run stream.
func TestSingleReplicaByteIdentical(t *testing.T) {
	etcCfg := memcachedETCConfig()
	cfg := memcachedGenConfig(etcCfg, 50_000)

	runOnce := func(backend services.Backend) loadgen.RunResult {
		gen, err := loadgen.New(cfg, backend)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := gen.RunOnce(rng.NewLabeled(99, "cluster/identity"), 40*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}

	raw := runOnce(newMemcachedReplicas(t, 1)[0])

	for _, policy := range []string{RouterRoundRobin, RouterLeastOutstanding, RouterConsistentHash} {
		router, _ := NewRouter(policy)
		rs, err := New(newMemcachedReplicas(t, 1), 1, router, nil)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := runOnce(rs)
		if !reflect.DeepEqual(raw, wrapped) {
			t.Errorf("router %s: one-replica cluster diverged from the legacy path", policy)
		}
	}
}

// TestReplicaSetRunsAreReproducible pins run-level determinism: the same
// stream label replayed against a replicated set yields identical
// results and identical per-replica routing, including back-to-back on
// one instance (ResetRun completeness).
func TestReplicaSetRunsAreReproducible(t *testing.T) {
	etcCfg := memcachedETCConfig()
	cfg := memcachedGenConfig(etcCfg, 80_000)

	run := func() (loadgen.RunResult, RunStats) {
		router, _ := NewRouter(RouterConsistentHash)
		rs, err := New(newMemcachedReplicas(t, 3), 3, router, nil)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := loadgen.New(cfg, rs)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := gen.RunOnce(rng.NewLabeled(7, "cluster/repro"), 30*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return rr, rs.Stats()
	}

	r1, s1 := run()
	r2, s2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Error("replicated runs diverged across instances")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("cluster stats diverged across instances")
	}

	// Back-to-back runs on one instance must match a fresh instance.
	router, _ := NewRouter(RouterConsistentHash)
	rs, err := New(newMemcachedReplicas(t, 3), 3, router, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := loadgen.New(cfg, rs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rr, err := gen.RunOnce(rng.NewLabeled(7, "cluster/repro"), 30*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rr, r1) {
			t.Errorf("repeat run %d diverged (ResetRun incomplete?)", i)
		}
	}
}

// TestConsistentHashSkewExceedsRoundRobin pins the load-balance-skew
// property the cluster figure reports: under the hot-key ETC trace
// (Zipf 0.99), consistent hashing concentrates popular keys on single
// replicas while round-robin spreads offered load evenly.
func TestConsistentHashSkewExceedsRoundRobin(t *testing.T) {
	etcCfg := memcachedETCConfig()
	cfg := memcachedGenConfig(etcCfg, 80_000)

	skew := func(policy string) float64 {
		router, _ := NewRouter(policy)
		rs, err := New(newMemcachedReplicas(t, 4), 4, router, nil)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := loadgen.New(cfg, rs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.RunOnce(rng.NewLabeled(21, "cluster/skew"), 40*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		st := rs.Stats()
		var total uint64
		for _, r := range st.Replicas {
			total += r.Routed
		}
		if total == 0 {
			t.Fatal("no requests routed")
		}
		return st.Skew()
	}

	rr := skew(RouterRoundRobin)
	ch := skew(RouterConsistentHash)
	if rr > 1.05 {
		t.Errorf("round-robin skew %.3f, want ≈1.0", rr)
	}
	if ch <= rr*1.05 {
		t.Errorf("consistent-hash skew %.3f not above round-robin %.3f under Zipf-%.2f keys",
			ch, rr, etcCfg.ZipfAlpha)
	}
}

// --- Autoscaler ---

// eventFunc adapts a func to sim.EventSink and completeFunc a func to
// services.CompletionSink: the tests' stand-ins for scheduling a closure
// (a capturing func allocates; fine here).
type (
	eventFunc    func(now sim.Time)
	completeFunc func(req *services.Request, departed sim.Time)
)

func (f eventFunc) OnEvent(now sim.Time, _ sim.EventArg) { f(now) }
func (f completeFunc) OnComplete(req *services.Request, departed sim.Time) {
	f(req, departed)
}

func TestAutoscalerConfigValidate(t *testing.T) {
	if err := DefaultAutoscalerConfig(1, 4).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []AutoscalerConfig{
		{Min: 0, Max: 2, Interval: time.Millisecond, ScaleUpAt: 0.7, ScaleDownAt: 0.2},
		{Min: 3, Max: 2, Interval: time.Millisecond, ScaleUpAt: 0.7, ScaleDownAt: 0.2},
		{Min: 1, Max: 2, ScaleUpAt: 0.7, ScaleDownAt: 0.2},
		{Min: 1, Max: 2, Interval: time.Millisecond, ScaleUpAt: 0.2, ScaleDownAt: 0.7},
		{Min: 1, Max: 2, Interval: time.Millisecond, Signal: "vibes", ScaleUpAt: 0.7, ScaleDownAt: 0.2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestAutoscalerScalesOutAndBack drives a 1-active/2-capacity synthetic
// set near one replica's saturation point, then stops the load: the
// utilization loop must add the standby and later retire it.
func TestAutoscalerScalesOutAndBack(t *testing.T) {
	replicas := make([]services.Backend, 2)
	for i := range replicas {
		s, err := services.NewSynthetic(services.DefaultSyntheticConfig())
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = s
	}
	auto := AutoscalerConfig{
		Min: 1, Max: 2,
		Interval:    2 * time.Millisecond,
		ScaleUpAt:   0.60,
		ScaleDownAt: 0.20,
		Cooldown:    2 * time.Millisecond,
	}
	router, _ := NewRouter(RouterLeastOutstanding)
	rs, err := New(replicas, 1, router, &auto)
	if err != nil {
		t.Fatal(err)
	}

	engine := sim.NewEngine()
	stream := rng.New(5)
	for _, m := range rs.Machines() {
		m.ResetRun(stream.Split())
	}
	rs.ResetRun(engine, stream.Split())
	end := sim.Time(0).Add(40 * time.Millisecond)
	rs.StartRun(end)

	// ≈11µs service on 10 workers ⇒ one replica saturates near 900K QPS.
	// Offer 800K QPS for the first 20ms, then nothing.
	const gap = 1250 * time.Nanosecond
	loadEnd := sim.Time(0).Add(20 * time.Millisecond)
	var completed int
	var at sim.Time
	for at = 0; at < loadEnd; at = at.Add(gap) {
		engine.AtSink(at, eventFunc(func(now sim.Time) {
			req := &services.Request{}
			req.SetCompletionSink(completeFunc(func(*services.Request, sim.Time) { completed++ }))
			rs.Arrive(req, now)
		}), sim.EventArg{})
	}
	engine.RunUntil(end)

	st := rs.Stats()
	if len(st.ScaleEvents) < 2 {
		t.Fatalf("got %d scale events, want ≥2 (out and back): %+v", len(st.ScaleEvents), st.ScaleEvents)
	}
	if st.ScaleEvents[0].Replicas != 2 {
		t.Errorf("first decision scaled to %d, want 2 (out)", st.ScaleEvents[0].Replicas)
	}
	if last := st.ScaleEvents[len(st.ScaleEvents)-1]; last.Replicas != 1 {
		t.Errorf("final decision scaled to %d, want 1 (back)", last.Replicas)
	}
	if st.Active != 1 {
		t.Errorf("active = %d at end of run, want 1", st.Active)
	}
	if st.Replicas[1].Routed == 0 {
		t.Error("standby replica never served a request after scale-out")
	}
	if completed == 0 {
		t.Error("no requests completed")
	}
}

// TestAutoscalerLatencySignal checks the alternative signal: residence
// above the µs threshold scales out.
func TestAutoscalerLatencySignal(t *testing.T) {
	replicas := make([]services.Backend, 2)
	for i := range replicas {
		s, err := services.NewSynthetic(services.DefaultSyntheticConfig())
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = s
	}
	auto := AutoscalerConfig{
		Min: 1, Max: 2,
		Interval:    2 * time.Millisecond,
		Signal:      SignalLatency,
		ScaleUpAt:   30, // µs; saturated residence is far above
		ScaleDownAt: 1,
	}
	router, _ := NewRouter(RouterRoundRobin)
	rs, err := New(replicas, 1, router, &auto)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	stream := rng.New(6)
	for _, m := range rs.Machines() {
		m.ResetRun(stream.Split())
	}
	rs.ResetRun(engine, stream.Split())
	end := sim.Time(0).Add(20 * time.Millisecond)
	rs.StartRun(end)
	// Overload one replica: 1500 simultaneous arrivals queue deeply.
	engine.AtSink(0, eventFunc(func(now sim.Time) {
		for i := 0; i < 1500; i++ {
			req := &services.Request{Conn: i}
			req.SetCompletionSink(completeFunc(func(*services.Request, sim.Time) {}))
			rs.Arrive(req, now)
		}
	}), sim.EventArg{})
	engine.RunUntil(end)
	st := rs.Stats()
	if len(st.ScaleEvents) == 0 || st.ScaleEvents[0].Replicas != 2 {
		t.Errorf("latency signal never scaled out: %+v", st.ScaleEvents)
	}
}

// --- Benchmark ---

// BenchmarkClusterRoute measures the per-request routing cost of each
// policy over 8 replicas, cycling 4,096 requests whose ranks are drawn
// from the ETC Zipf table over the Memcached preload's 100K keys, as
// production requests are: one key repeated, or a few thousand
// consecutive ranks, would let the branch predictor learn the ring
// search. Pick must not allocate.
func BenchmarkClusterRoute(b *testing.B) {
	etcCfg := workload.DefaultETCConfig()
	etcCfg.Keys = 100_000
	etc, err := workload.NewETC(etcCfg, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	ranks := make([]int, 4096)
	for i := range ranks {
		ranks[i] = etc.Next().Rank
	}
	for _, policy := range []string{RouterRoundRobin, RouterLeastOutstanding, RouterConsistentHash} {
		b.Run(policy, func(b *testing.B) {
			router, err := NewRouter(policy)
			if err != nil {
				b.Fatal(err)
			}
			router.Reset(rng.New(1))
			router.Resize(8)
			outstanding := make([]int, 8)
			req := &services.Request{HasKV: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.KV.Rank = ranks[i&4095]
				req.Conn = i
				picked := router.Pick(req, outstanding)
				outstanding[picked] = (outstanding[picked] + 1) & 7
			}
		})
	}
}

// autoscaledSet builds an 8-replica synthetic set with a utilization
// autoscaler holding 4 active, reset and ready to tick.
func autoscaledSet(tb testing.TB) *ReplicaSet {
	tb.Helper()
	replicas := make([]services.Backend, 8)
	for i := range replicas {
		s, err := services.NewSynthetic(services.DefaultSyntheticConfig())
		if err != nil {
			tb.Fatal(err)
		}
		replicas[i] = s
	}
	auto := DefaultAutoscalerConfig(1, 8)
	router, err := NewRouter(RouterLeastOutstanding)
	if err != nil {
		tb.Fatal(err)
	}
	rs, err := New(replicas, 4, router, &auto)
	if err != nil {
		tb.Fatal(err)
	}
	rs.ResetRun(sim.NewEngine(), rng.New(1))
	return rs
}

// BenchmarkAutoscalerTick measures one utilization sample+decide over 8
// replicas (4 active, 4 standby baselines) — the per-tick cost the SoA
// occupancy path pays on every virtual-time Interval. Must not allocate:
// the pre-SoA path built a TierStats slice per replica per tick.
func BenchmarkAutoscalerTick(b *testing.B) {
	rs := autoscaledSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signal := rs.auto.sample(rs, sim.Time(0))
		rs.auto.decide(sim.Time(i), rs.active, signal)
	}
}

// TestAutoscalerTickZeroAlloc is the PR 9 SoA gate: the autoscaler's
// utilization tick must be allocation-free in steady state.
func TestAutoscalerTickZeroAlloc(t *testing.T) {
	rs := autoscaledSet(t)
	allocs := testing.AllocsPerRun(200, func() {
		signal := rs.auto.sample(rs, sim.Time(0))
		rs.auto.decide(0, rs.active, signal)
	})
	if allocs != 0 {
		t.Errorf("autoscaler tick allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSkewCountsScaledDownReplicas is the regression test for the
// Skew() accounting bug: skew used to be computed over the
// Replicas[:Active] prefix, where Active is the count at run END. A
// scale-up-then-down run routes load to replicas that are no longer
// active when Stats() is taken, and the old code silently dropped them
// — here replica 2 absorbed the whole hot-key imbalance during the
// scaled-up window, and the truncated skew reported perfect balance.
func TestSkewCountsScaledDownReplicas(t *testing.T) {
	st := RunStats{
		Router:   RouterConsistentHash,
		Active:   2, // back at min by run end
		Capacity: 4,
		Replicas: []ReplicaStats{
			{Routed: 1000},
			{Routed: 1000},
			{Routed: 4000}, // served the mid-run spike, inactive at end
			{Routed: 0},    // never entered rotation
		},
		ScaleEvents: []ScaleEvent{
			{At: sim.Time(10 * time.Millisecond), Replicas: 3, Signal: 0.9},
			{At: sim.Time(40 * time.Millisecond), Replicas: 2, Signal: 0.1},
		},
	}
	// max=4000 over participants {1000, 1000, 4000}: mean 2000, skew 2.
	if got, want := st.Skew(), 2.0; got != want {
		t.Errorf("skew = %v, want %v (scaled-down replica 2 dropped from the accounting?)", got, want)
	}
	// The never-routed replica must not dilute the mean either.
	balanced := RunStats{Active: 4, Capacity: 4, Replicas: []ReplicaStats{{Routed: 500}, {Routed: 500}, {Routed: 500}, {Routed: 0}}}
	if got := balanced.Skew(); got != 1.0 {
		t.Errorf("skew with an idle replica = %v, want 1.0 over the three participants", got)
	}
	if got := (RunStats{Replicas: []ReplicaStats{{}, {}}}).Skew(); got != 0 {
		t.Errorf("skew with no traffic = %v, want 0", got)
	}
}
