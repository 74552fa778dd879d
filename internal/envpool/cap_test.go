package envpool

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
)

func testKey(name string) Key {
	return Key{Service: name, Server: hw.ServerBaselineConfig()}
}

func newSynthetic(t *testing.T) func() (services.Backend, error) {
	t.Helper()
	return func() (services.Backend, error) {
		return services.NewSynthetic(services.DefaultSyntheticConfig())
	}
}

// TestIdleListBounded pins the per-key idle cap: releases beyond
// MaxIdlePerKey drop the instance and count as evictions, so a long
// many-configuration sweep cannot grow pool residency unboundedly.
func TestIdleListBounded(t *testing.T) {
	p := New()
	p.MaxIdlePerKey = 2
	key := testKey("synthetic")

	var backends []services.Backend
	for i := 0; i < 5; i++ {
		b, err := p.Lease(key, newSynthetic(t))
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	for _, b := range backends {
		p.Release(key, b)
	}
	if got := p.IdleCount(); got != 2 {
		t.Errorf("idle count = %d, want cap of 2", got)
	}
	if got := p.Evictions(); got != 3 {
		t.Errorf("evictions = %d, want 3", got)
	}
	// The cap is per key: a second key gets its own allowance.
	b, err := p.Lease(testKey("other"), newSynthetic(t))
	if err != nil {
		t.Fatal(err)
	}
	p.Release(testKey("other"), b)
	if got := p.IdleCount(); got != 3 {
		t.Errorf("idle count across keys = %d, want 3", got)
	}
}

func TestDefaultIdleCap(t *testing.T) {
	p := New()
	key := testKey("synthetic")
	var backends []services.Backend
	for i := 0; i < DefaultMaxIdlePerKey+3; i++ {
		b, err := p.Lease(key, newSynthetic(t))
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	for _, b := range backends {
		p.Release(key, b)
	}
	if got := p.IdleCount(); got != DefaultMaxIdlePerKey {
		t.Errorf("idle count = %d, want default cap %d", got, DefaultMaxIdlePerKey)
	}
	if got := p.Evictions(); got != 3 {
		t.Errorf("evictions = %d, want 3", got)
	}
}

// TestMachineLeasing covers the generator-pooling path: machine sets are
// leased by (client config, deployment shape) key, reused across
// lessees, and bounded by the same idle cap.
func TestMachineLeasing(t *testing.T) {
	p := New()
	cfg := loadgen.Config{
		Machines: 2, ThreadsPerMachine: 2, ConnsPerThread: 5,
		RateQPS: 1000, ClientHW: hw.HPConfig(), TimeSensitive: true,
	}
	count, cores := cfg.MachineSpec()
	key := MachineKey{Client: cfg.ClientHW, Machines: count, Cores: cores}

	build := func() ([]*hw.Machine, error) { return loadgen.BuildMachines(cfg) }
	ms, err := p.LeaseMachines(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != count || ms[0].NumPhysicalCores() != cores {
		t.Fatalf("built %d machines × %d cores, want %d × %d", len(ms), ms[0].NumPhysicalCores(), count, cores)
	}
	p.ReleaseMachines(key, ms)
	if got := p.IdleMachineSets(); got != 1 {
		t.Fatalf("idle machine sets = %d, want 1", got)
	}

	ms2, err := p.LeaseMachines(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms, ms2) {
		t.Error("second lease did not reuse the idle machine set")
	}
	if builds, reuses := p.MachineStats(); builds != 1 || reuses != 1 {
		t.Errorf("machine stats = %d builds / %d reuses, want 1/1", builds, reuses)
	}

	// A different client config never reuses another key's machines.
	lpKey := key
	lpKey.Client = hw.LPConfig()
	if _, err := p.LeaseMachines(lpKey, func() ([]*hw.Machine, error) {
		lpCfg := cfg
		lpCfg.ClientHW = hw.LPConfig()
		return loadgen.BuildMachines(lpCfg)
	}); err != nil {
		t.Fatal(err)
	}
	if builds, _ := p.MachineStats(); builds != 2 {
		t.Errorf("distinct key should build: %d builds, want 2", builds)
	}
}

// TestLeaseEngineSets covers engine-set pooling: sets are leased by
// (shard count, lookahead) key, counted as builds and reuses like
// machine sets, bounded by the same idle cap, and a set of one shape
// never serves a config of another.
func TestLeaseEngineSets(t *testing.T) {
	p := New()
	p.MaxIdlePerKey = 1
	single := loadgen.Config{
		Machines: 4, ThreadsPerMachine: 1, ConnsPerThread: 5, RateQPS: 1000,
		ClientHW: hw.HPConfig(), TimeSensitive: true, Net: netmodel.DefaultConfig(),
		Payloads: func(*rng.Stream) loadgen.PayloadSource { return nil },
	}
	sharded := single
	sharded.Shards = 2
	keyOf := func(cfg loadgen.Config) (EngineKey, func() (*loadgen.Engines, error)) {
		shards, lookahead := cfg.EngineSpec()
		return EngineKey{Shards: shards, Lookahead: lookahead}, func() (*loadgen.Engines, error) {
			return loadgen.NewEngines(shards, lookahead)
		}
	}
	k0, build0 := keyOf(single)
	k2, build2 := keyOf(sharded)
	if k0 != (EngineKey{}) || k2 != (EngineKey{Shards: 2, Lookahead: sharded.Net.MinDelay()}) {
		t.Fatalf("keys %+v and %+v, want the zero key and 2 shards at %v", k0, k2, sharded.Net.MinDelay())
	}

	a, err := p.LeaseEngines(k0, build0)
	if err != nil {
		t.Fatal(err)
	}
	p.ReleaseEngines(k0, a)
	b, err := p.LeaseEngines(k0, build0)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Error("second lease did not reuse the idle engine set")
	}
	if builds, reuses := p.EngineStats(); builds != 1 || reuses != 1 {
		t.Errorf("engine stats = %d builds / %d reuses, want 1/1", builds, reuses)
	}

	// A live lease is never handed out twice, and a distinct key builds.
	c, err := p.LeaseEngines(k0, build0)
	if err != nil {
		t.Fatal(err)
	}
	if c == b {
		t.Fatal("two live leases share an engine set")
	}
	d, err := p.LeaseEngines(k2, build2)
	if err != nil {
		t.Fatal(err)
	}
	if builds, _ := p.EngineStats(); builds != 3 {
		t.Errorf("%d builds, want 3", builds)
	}

	// A set serves only the shape it was built for.
	backend, err := services.NewSynthetic(services.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	machines, err := loadgen.BuildMachines(single)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadgen.NewLeased(single, backend, machines, d); err == nil {
		t.Error("a 2-shard engine set served a single-engine config")
	}
	if _, err := loadgen.NewLeased(sharded, backend, machines, d); err != nil {
		t.Errorf("the 2-shard set refused its own shape: %v", err)
	}

	// At the cap of 1, the second release of a key is dropped.
	p.ReleaseEngines(k0, b)
	p.ReleaseEngines(k0, c)
	p.ReleaseEngines(k2, d)
	if got := p.IdleEngineSets(); got != 2 {
		t.Errorf("idle engine sets = %d, want 2 (one per key)", got)
	}
	if got := p.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestLeaseEngineSetsExclusive has goroutines lease, hold and release
// sets of one key at once: no set is ever held by two of them. Run it
// under -race, where the pool's own bookkeeping is checked as well.
func TestLeaseEngineSetsExclusive(t *testing.T) {
	p := New()
	key := EngineKey{}
	build := func() (*loadgen.Engines, error) { return loadgen.NewEngines(0, 0) }
	var (
		mu   sync.Mutex
		held = map[*loadgen.Engines]bool{}
		wg   sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				es, err := p.LeaseEngines(key, build)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if held[es] {
					t.Error("an engine set was leased while another worker held it")
				}
				held[es] = true
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				held[es] = false
				mu.Unlock()
				p.ReleaseEngines(key, es)
			}
		}()
	}
	wg.Wait()
	builds, reuses := p.EngineStats()
	if builds > 8 || builds+reuses != 8*200 {
		t.Errorf("%d builds and %d reuses for 8 workers × 200 leases", builds, reuses)
	}
}
