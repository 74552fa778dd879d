package services

import (
	"math"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/lsh"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// eventFunc adapts a func to sim.EventSink and completeFunc a func to
// CompletionSink: the tests' stand-ins for scheduling a closure (a
// capturing func allocates; fine here).
type (
	eventFunc    func(now sim.Time)
	completeFunc func(req *Request, departed sim.Time)
)

func (f eventFunc) OnEvent(now sim.Time, _ sim.EventArg)          { f(now) }
func (f completeFunc) OnComplete(req *Request, departed sim.Time) { f(req, departed) }

// drive sends one request into a backend at time zero and returns the
// server departure time.
func drive(t *testing.T, b Backend, payload any) (sim.Time, *Request) {
	t.Helper()
	engine := sim.NewEngine()
	for _, m := range b.Machines() {
		m.ResetRun(rng.New(10))
	}
	b.ResetRun(engine, rng.New(11))
	req := &Request{ID: 1, Payload: payload}
	var departed sim.Time
	req.SetCompletionSink(completeFunc(func(_ *Request, at sim.Time) { departed = at }))
	engine.AtSink(0, eventFunc(func(now sim.Time) { b.Arrive(req, now) }), sim.EventArg{})
	engine.Run()
	if departed == 0 {
		t.Fatal("request never completed")
	}
	return departed, req
}

func TestMemcachedConfigValidation(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Workers = 0
	if _, err := NewMemcached(cfg); err == nil {
		t.Error("zero workers accepted")
	}
	cfg = DefaultMemcachedConfig()
	cfg.Keys = 0
	if _, err := NewMemcached(cfg); err == nil {
		t.Error("zero keys accepted")
	}
}

func TestMemcachedServesGetAndSet(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 1000 // small preload for test speed
	m, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "memcached" {
		t.Errorf("name = %s", m.Name())
	}
	// GET of a preloaded key: hit, service ≈ 10µs, response carries value.
	dep, req := drive(t, m, workload.KVRequest{Op: workload.OpGet, Rank: 42})
	if got := time.Duration(dep); got < 5*time.Microsecond || got > 60*time.Microsecond {
		t.Errorf("GET service time %v, want ≈10µs", got)
	}
	if size, ok := m.store.ValueSize(42); !ok || req.ResponseBytes != 24+size {
		t.Errorf("GET hit response = %d bytes, want 24 + rank 42's %d-byte value (held: %v)", req.ResponseBytes, size, ok)
	}

	// GET of a key past the preloaded ranks: miss, small response.
	_, req = drive(t, m, workload.KVRequest{Op: workload.OpGet, Rank: cfg.Keys})
	if req.ResponseBytes != 24 {
		t.Errorf("miss response = %d bytes, want 24", req.ResponseBytes)
	}

	// SET stores the value's size under its rank.
	drive(t, m, workload.KVRequest{Op: workload.OpSet, Rank: cfg.Keys + 1, ValueSize: 128})
	if size, ok := m.store.ValueSize(cfg.Keys + 1); !ok || size != 128 {
		t.Errorf("after SET rank %d holds %d bytes (held: %v), want 128", cfg.Keys+1, size, ok)
	}
}

func TestMemcachedRejectsWrongPayload(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 10
	m, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong payload did not panic")
		}
	}()
	drive(t, m, "not a kv request")
}

func TestMemcachedResetRunRestoresStore(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 100
	m, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rank = 7
	orig, ok := m.store.ValueSize(rank)
	if !ok {
		t.Fatalf("preloaded rank %d missing", rank)
	}

	// A run SETs the key with a different value size; a GET's modelled
	// cost depends on that size, so without a restore the next run would
	// observe this run's write.
	drive(t, m, workload.KVRequest{Op: workload.OpSet, Rank: rank, ValueSize: orig + 999})
	if size, _ := m.store.ValueSize(rank); size != orig+999 {
		t.Fatalf("set not applied: size=%d", size)
	}

	m.ResetRun(sim.NewEngine(), rng.New(5))
	if size, ok := m.store.ValueSize(rank); !ok || size != orig {
		t.Errorf("after ResetRun value size = %d (held: %v), want preloaded %d", size, ok, orig)
	}
}

func TestMemcachedMeanServiceTimeScale(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 10
	m, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper cites ~10µs server-side processing for Memcached.
	st := m.MeanServiceTime()
	if st < 5e-6 || st > 20e-6 {
		t.Errorf("mean service time %v s, want ≈1e-5", st)
	}

	// Pin the corrected composition: GET base + mean ETC value copy-out +
	// SMT-off stack share. The ETC mean value is σ/(1−k)+1 ≈ 330 B, so at
	// 4 ns/B the calibrated total is ≈9.62 µs.
	meanVal := m.ETCConfig().MeanValueSize()
	if meanVal < 329 || meanVal > 331 {
		t.Errorf("ETC mean value size = %.2f B, want ≈330", meanVal)
	}
	want := (memcachedGetBase + time.Duration(meanVal*memcachedPerByte) + stackCostSMTOff).Seconds()
	if st != want {
		t.Errorf("mean service time %v, want composed %v", st, want)
	}
	if st < 9.5e-6 || st > 9.8e-6 {
		t.Errorf("mean service time %v s, want ≈9.62µs", st)
	}
}

// TestMemcachedInstancesShareSnapshot pins the copy-on-write preload:
// instances with the same workload parameters fork one frozen base, and
// one instance's writes never reach a sibling.
func TestMemcachedInstancesShareSnapshot(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 500
	a, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.store.Base() != b.store.Base() {
		t.Fatal("same-config instances do not share a preload snapshot")
	}
	// An SMT-variant server still shares it (preload is workload-keyed).
	cfg2 := cfg
	cfg2.ServerHW = cfg.ServerHW.WithSMT(true)
	c, err := NewMemcached(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a.store.Base() != c.store.Base() {
		t.Error("server-config variant rebuilt the preload")
	}
	// A different key space does not.
	cfg3 := cfg
	cfg3.Keys = 600
	d, err := NewMemcached(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if a.store.Base() == d.store.Base() {
		t.Error("different key spaces share a snapshot")
	}

	const rank = 9
	orig, ok := a.store.ValueSize(rank)
	if !ok {
		t.Fatalf("preloaded rank %d missing", rank)
	}
	drive(t, a, workload.KVRequest{Op: workload.OpSet, Rank: rank, ValueSize: orig + 123})
	if size, _ := b.store.ValueSize(rank); size != orig {
		t.Errorf("sibling instance sees a's write: size=%d, want %d", size, orig)
	}
}

// TestMemcachedPreloadByRank pins the preload: the default key space's
// ID count and value bytes, which any change to the value-size draws
// moves, and that ID i holds the i-th value-size draw of the
// memcached-preload stream, so a GET of rank i prices rank i's value.
func TestMemcachedPreloadByRank(t *testing.T) {
	m, err := NewMemcached(DefaultMemcachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg, stream := m.ETCConfig(), rng.NewLabeled(12345, "memcached-preload")
	const ids = 100_000
	var total int
	for id := 0; id < ids; id++ {
		want := cfg.ValueSize(stream)
		got, ok := m.store.ValueSize(id)
		if !ok || got != want {
			t.Fatalf("ID %d holds %d bytes (held: %v), want draw %d = %d", id, got, ok, id, want)
		}
		total += got
	}
	if size, ok := m.store.ValueSize(ids); ok {
		t.Errorf("ID %d past the preload holds %d bytes, want a miss", ids, size)
	}
	if total != 32_973_675 {
		t.Errorf("preload holds %d value bytes, want 32973675", total)
	}
}

// BenchmarkMemcachedPreload measures building the default 100K-key
// preload from a cold cache, as the first Memcached instance of a process
// does.
func BenchmarkMemcachedPreload(b *testing.B) {
	etcCfg := workload.DefaultETCConfig()
	etcCfg.Keys = DefaultMemcachedConfig().Keys
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		preloadMu.Lock()
		delete(preloadSnapshots, etcCfg)
		preloadMu.Unlock()
		if _, err := preloadSnapshot(etcCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSyntheticDelayAccounting(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Delay = 300 * time.Microsecond
	s, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := drive(t, s, struct{}{})
	got := time.Duration(dep)
	// base (~9µs noisy) + exactly 300µs busy-wait + stack.
	if got < 300*time.Microsecond || got > 330*time.Microsecond {
		t.Errorf("synthetic service time %v, want ≈310µs", got)
	}
	if s.Delay() != 300*time.Microsecond {
		t.Errorf("Delay() = %v", s.Delay())
	}
}

func TestSyntheticValidation(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Workers = 0
	if _, err := NewSynthetic(cfg); err == nil {
		t.Error("zero workers accepted")
	}
	cfg = DefaultSyntheticConfig()
	cfg.Delay = -time.Microsecond
	if _, err := NewSynthetic(cfg); err == nil {
		t.Error("negative delay accepted")
	}
	cfg = DefaultSyntheticConfig()
	cfg.Base = 0
	if _, err := NewSynthetic(cfg); err == nil {
		t.Error("zero base accepted")
	}
}

func TestHDSearchThreeTierFlow(t *testing.T) {
	cfg := DefaultHDSearchConfig()
	cfg.DatasetSize = 2000 // fast index build
	h, err := NewHDSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Machines()) != 2 {
		t.Errorf("hdsearch machines = %d, want 2 (midtier + bucket)", len(h.Machines()))
	}
	q := h.NewQuery(rng.New(5))
	if len(q) != cfg.Dim {
		t.Fatalf("query dim = %d", len(q))
	}
	dep, req := drive(t, h, q)
	got := time.Duration(dep)
	// parse + hop + search + hop + merge ≈ several hundred µs.
	if got < 250*time.Microsecond || got > 2*time.Millisecond {
		t.Errorf("hdsearch end-to-end service %v, want ≈300µs–1ms", got)
	}
	if want := 64 + 48*cfg.TopK; req.ResponseBytes != want {
		t.Errorf("response bytes = %d, want %d (header + TopK results)", req.ResponseBytes, want)
	}
}

// TestHDSearchMeanServiceTime checks the nominal bucket search cost
// against the candidate counts of a seeded NewQuery stream.
func TestHDSearchMeanServiceTime(t *testing.T) {
	h, err := NewHDSearch(DefaultHDSearchConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(1)
	const draws = 2000
	total := 0
	for i := 0; i < draws; i++ {
		n, err := h.index.Candidates(h.NewQuery(stream))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	mean := float64(total) / draws
	want := (hdBucketBase + time.Duration(mean*float64(hdBucketPerCand))).Seconds()
	if got := h.MeanServiceTime(); got < 0.95*want || got > 1.05*want {
		t.Errorf("MeanServiceTime = %.1f µs, want %.1f µs ±5%% (%.0f mean candidates)", got*1e6, want*1e6, mean)
	}
}

// TestNewQueryMatchesNormalDraws checks NewQuery bit for bit against the
// draw it replaces, base[i] + Normal(0, 0.15) per dimension, over 1,000
// seeded queries. At an odd dimension every other query ends inside a
// normal pair, so a spare carries over into the next query.
func TestNewQueryMatchesNormalDraws(t *testing.T) {
	for _, dim := range []int{64, 63} {
		cfg := DefaultHDSearchConfig()
		cfg.DatasetSize, cfg.Dim = 2000, dim
		h, err := NewHDSearch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := rng.New(9), rng.New(9)
		for n := 0; n < 1000; n++ {
			q := h.NewQuery(got)
			base := h.dataset[want.Intn(len(h.dataset))]
			for i := range base {
				if w := base[i] + want.Normal(0, 0.15); math.Float64bits(q[i]) != math.Float64bits(w) {
					t.Fatalf("dim %d, query %d, dimension %d: %v, want %v", dim, n, i, q[i], w)
				}
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("dim %d: streams differ after 1,000 queries", dim)
		}
	}
}

func TestHDSearchValidation(t *testing.T) {
	cfg := DefaultHDSearchConfig()
	cfg.MidtierWorkers = 0
	if _, err := NewHDSearch(cfg); err == nil {
		t.Error("zero midtier workers accepted")
	}
	cfg = DefaultHDSearchConfig()
	cfg.TopK = 0
	if _, err := NewHDSearch(cfg); err == nil {
		t.Error("zero topK accepted")
	}
}

func TestHDSearchRejectsWrongPayload(t *testing.T) {
	cfg := DefaultHDSearchConfig()
	cfg.DatasetSize = 100
	h, err := NewHDSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong payload did not panic")
		}
	}()
	drive(t, h, 42)
}

func TestSocialNetChainFlow(t *testing.T) {
	s, err := NewSocialNet(DefaultSocialNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep, req := drive(t, s, struct{}{})
	got := time.Duration(dep)
	// nginx → timeline → storage → cache → nginx ≈ 2–3ms.
	if got < time.Millisecond || got > 8*time.Millisecond {
		t.Errorf("socialnet end-to-end service %v, want ≈2–3ms", got)
	}
	// The reply carries the 10 posts every timeline read returns.
	if want := 256 + 200*10; req.ResponseBytes != want {
		t.Errorf("response bytes = %d, want %d", req.ResponseBytes, want)
	}
}

func TestBackendC1EVariantPaysServerWake(t *testing.T) {
	// A C1E-enabled server pays a deeper wake than the C1 baseline when a
	// request arrives after a long idle (the Fig. 3 server mechanism).
	run := func(maxC string) time.Duration {
		cfg := DefaultSyntheticConfig()
		cfg.ServerHW = hw.ServerBaselineConfig()
		cfg.ServerHW.MaxCState = maxC
		s, err := NewSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine()
		for _, m := range s.Machines() {
			m.ResetRun(rng.New(20))
		}
		s.ResetRun(engine, rng.New(21))
		// Train the worker with long idle gaps, then measure.
		var last sim.Time
		at := sim.Time(0)
		for i := 0; i < 12; i++ {
			req := &Request{ID: uint64(i), Payload: struct{}{}, Conn: 0}
			start := at
			req.SetCompletionSink(completeFunc(func(_ *Request, done sim.Time) { last = done - start }))
			engine.AtSink(at, eventFunc(func(now sim.Time) {
				r := req
				s.Arrive(r, now)
			}), sim.EventArg{})
			at = at.Add(2 * time.Millisecond)
		}
		engine.Run()
		return time.Duration(last)
	}
	c1 := run("C1")
	c1e := run("C1E")
	if c1e <= c1 {
		t.Errorf("C1E-enabled service time %v not above C1 baseline %v", c1e, c1)
	}
}

// Ensure every backend satisfies the interfaces (compile-time check):
// Backend for the service contract, JobSink for typed tier completions,
// and sim.EventSink for the multi-hop services' link deliveries.
var (
	_ Backend = (*Memcached)(nil)
	_ Backend = (*Synthetic)(nil)
	_ Backend = (*HDSearch)(nil)
	_ Backend = (*SocialNet)(nil)

	_ JobSink = (*Memcached)(nil)
	_ JobSink = (*Synthetic)(nil)
	_ JobSink = (*HDSearch)(nil)
	_ JobSink = (*SocialNet)(nil)

	_ sim.EventSink = (*Tier)(nil)
	_ sim.EventSink = (*HDSearch)(nil)
	_ sim.EventSink = (*SocialNet)(nil)

	_ = lsh.Vector(nil)
)
