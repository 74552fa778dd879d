package envpool_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/envpool"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/services"
)

func synthKey() envpool.Key {
	return envpool.Key{Service: "synthetic", Server: hw.ServerBaselineConfig()}
}

func buildSynth() (services.Backend, error) {
	return services.NewSynthetic(services.DefaultSyntheticConfig())
}

func TestPoolLeaseReuseAndKeying(t *testing.T) {
	p := envpool.New()
	key := synthKey()

	a, err := p.Lease(key, buildSynth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Lease(key, buildSynth)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two live leases share an instance")
	}
	if builds, reuses := p.Stats(); builds != 2 || reuses != 0 {
		t.Errorf("stats = %d builds / %d reuses, want 2/0", builds, reuses)
	}

	p.Release(key, a)
	c, err := p.Lease(key, buildSynth)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("idle instance not reused")
	}
	if builds, reuses := p.Stats(); builds != 2 || reuses != 1 {
		t.Errorf("stats = %d builds / %d reuses, want 2/1", builds, reuses)
	}

	// A different key never reuses another key's instances.
	other := synthKey()
	other.Server = hw.ServerBaselineConfig().WithSMT(true)
	p.Release(key, c)
	p.Release(key, b)
	d, err := p.Lease(other, buildSynth)
	if err != nil {
		t.Fatal(err)
	}
	if d == a || d == b {
		t.Error("lease crossed configuration keys")
	}
	if got := p.IdleCount(); got != 2 {
		t.Errorf("idle count = %d, want 2", got)
	}
}

func TestPoolLeaseBuildError(t *testing.T) {
	p := envpool.New()
	boom := fmt.Errorf("no backend")
	if _, err := p.Lease(synthKey(), func() (services.Backend, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if builds, _ := p.Stats(); builds != 0 {
		t.Errorf("failed build counted: %d", builds)
	}
}

func TestContextPlumbing(t *testing.T) {
	if envpool.From(context.Background()) != nil {
		t.Error("empty context carries a pool")
	}
	ctx := envpool.NewContext(context.Background(), 3)
	if envpool.From(ctx) == nil {
		t.Error("NewContext carries no backend pool")
	}
	b := sched.BudgetFrom(ctx)
	if b == nil || b.Capacity() != 3 {
		t.Errorf("NewContext budget = %+v, want capacity 3", b)
	}
}

// sweepOpts sizes an envpool-layer sweep for test runtimes: 2 clients ×
// 2 server variants × 2 rates, with enough repetitions per cell that the
// nested (cell × run) fan-out genuinely competes for the budget.
func sweepOpts(workers int) figures.SweepOptions {
	return figures.SweepOptions{Runs: 4, Seed: 9, TargetSamples: 400, Workers: workers}
}

func runSweep(t *testing.T, opts figures.SweepOptions) *figures.Sweep {
	t.Helper()
	sw, err := figures.RunServiceSweep(experiment.ServiceMemcached,
		experiment.SMTVariants(), []float64{50_000, 200_000}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestNestedFanOutRespectsBudget is the oversubscription regression
// test: a sweep dispatching cells and scenarios dispatching runs both
// draw from one budget, so with "-parallel 3" the concurrency high-water
// mark across both levels must never exceed 3 (not 3×runs).
func TestNestedFanOutRespectsBudget(t *testing.T) {
	budget := sched.NewBudget(3)
	opts := sweepOpts(3)
	opts.Budget = budget
	opts.Backends = envpool.New()
	runSweep(t, opts)

	if got := budget.HighWater(); got > 3 {
		t.Errorf("high water = %d workers, exceeds global budget 3 (nested fan-out oversubscribed)", got)
	}
	if got := budget.HighWater(); got == 0 {
		t.Error("budget never used — fan-out did not run under it")
	}
	if got := budget.InUse(); got != 0 {
		t.Errorf("tokens leaked: %d still in use", got)
	}
}

// TestEnvPoolSweepDeterministic pins the byte-identical guarantee at the
// envpool layer: sequential and parallel sweeps — with backend leasing
// and nested budget scheduling active — produce DeepEqual grids, and the
// pooled backends really are reused rather than rebuilt per cell.
func TestEnvPoolSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("covered in short mode by figures.TestParallelSweepByteIdentical, which sweeps through the same envpool path")
	}
	seqPool := envpool.New()
	seqOpts := sweepOpts(1)
	seqOpts.Backends = seqPool
	seq := runSweep(t, seqOpts)

	// Four cells of one key can run at once, each holding up to four
	// leases until it ends, so one key may have 16 builds: past the
	// default idle cap, where a release is dropped rather than pooled.
	// A cap at the build bound below pools every release, so the idle
	// count must equal the build count unless a lease leaked.
	parPool := envpool.New()
	parPool.MaxIdlePerKey = 8 * 4
	parOpts := sweepOpts(4)
	parOpts.Backends = parPool
	par := runSweep(t, parOpts)

	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel envpool sweep differs from sequential")
	}

	// 8 cells over 2 distinct backend keys: a sequential sweep needs at
	// most one backend per key live at a time, so leasing must have
	// reused instances across cells.
	builds, reuses := seqPool.Stats()
	if builds != 2 {
		t.Errorf("sequential sweep built %d backends, want 2 (one per server config)", builds)
	}
	if reuses == 0 {
		t.Error("sequential sweep never reused a pooled backend")
	}
	// The parallel sweep may build up to min(Runs, budget) instances per
	// concurrently active cell, but never more than cells × runs — and
	// every lease must come back.
	pb, pr := parPool.Stats()
	if pb+pr == 0 {
		t.Error("parallel sweep never touched the backend pool")
	}
	if pb > 8*4 {
		t.Errorf("parallel sweep built %d backends for 8 cells × 4 runs", pb)
	}
	if got := parPool.IdleCount(); got != pb {
		t.Errorf("leases leaked: %d idle of %d built", got, pb)
	}
}

// TestScenarioLeasesReleased pins that RunContext returns every lease:
// after two scenarios sharing a key, the second run builds nothing new
// when its worker count fits the idle list.
func TestScenarioLeasesReleased(t *testing.T) {
	pool := envpool.New()
	ctx := envpool.WithPool(context.Background(), pool)
	s := experiment.Scenario{
		Service:       experiment.ServiceSynthetic,
		Label:         "lease",
		Client:        hw.LPConfig(),
		Server:        hw.ServerBaselineConfig(),
		RateQPS:       5_000,
		Runs:          3,
		TargetSamples: 200,
		Seed:          21,
		Workers:       2,
	}
	first, err := experiment.RunContext(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	builds, _ := pool.Stats()
	if builds == 0 || builds > 2 {
		t.Fatalf("first scenario built %d backends, want 1–2 (one per worker)", builds)
	}
	if got := pool.IdleCount(); got != builds {
		t.Fatalf("leases not returned: %d idle of %d built", got, builds)
	}

	second, err := experiment.RunContext(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	// The second scenario's first lease always finds an idle instance; at
	// most it adds workers the first scenario never spawned, so the total
	// can never exceed the per-scenario worker cap.
	builds2, reuses := pool.Stats()
	if builds2 > 2 {
		t.Errorf("total builds = %d, want ≤2 (scenario worker cap)", builds2)
	}
	if reuses == 0 {
		t.Error("second scenario never reused the pooled backends")
	}

	// Leasing must not perturb results: same scenario, same Result.
	if !reflect.DeepEqual(first, second) {
		t.Error("two pooled executions of the same scenario differ")
	}
}

// TestLeasedEnginesMatchFreshPool runs a scenario on a pool whose engine
// set last served the faulty-cluster preset, at K=0 and at K=2, and on a
// fresh pool: the RunMetrics agree bit for bit. The faulty run ends with
// requests in flight and their 2 ms timeouts armed, and at K=2 with
// hand-offs scheduled on both shards, so the next lessee's reset has
// real state to clear. The scenario then reuses the set, not a new one.
func TestLeasedEnginesMatchFreshPool(t *testing.T) {
	faulty, _ := figures.PresetByName("faulty-cluster")
	fleet, _ := figures.PresetByName("cluster")
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("K=%d", shards), func(t *testing.T) {
			opts := figures.SweepOptions{Runs: 1, Seed: 3, TargetSamples: 2000, Shards: shards}
			dirty := figures.PresetScenario(faulty, 500_000, opts)
			opts.Runs = 2
			sc := figures.PresetScenario(fleet, 500_000, opts)

			reused := envpool.New()
			ctx := envpool.WithPool(context.Background(), reused)
			if _, err := experiment.RunContext(ctx, dirty); err != nil {
				t.Fatal(err)
			}
			got, err := experiment.RunContext(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			if builds, reuses := reused.EngineStats(); builds != 1 || reuses != 1 {
				t.Fatalf("engine stats %d builds / %d reuses, want 1/1", builds, reuses)
			}
			want, err := experiment.RunContext(envpool.WithPool(context.Background(), envpool.New()), sc)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Runs {
				if !sameBits(reflect.ValueOf(got.Runs[i]), reflect.ValueOf(want.Runs[i])) {
					t.Errorf("run %d on the reused set:\n%+v\nwant (fresh pool):\n%+v", i, got.Runs[i], want.Runs[i])
				}
			}
		})
	}
}

// sameBits reports whether a and b hold the same values, comparing
// floats by their bits, so neither a NaN nor a signed zero hides a
// difference.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}
