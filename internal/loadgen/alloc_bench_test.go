package loadgen

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workload"
)

// allocBenchConfig is the reference deployment the request-path
// allocation benchmarks drive: a small open-loop generator against the
// synthetic service, so the numbers isolate the request lifecycle
// (events, requests, completions) rather than payload construction.
func allocBenchConfig(rate float64) Config {
	return Config{
		Machines:          1,
		ThreadsPerMachine: 2,
		ConnsPerThread:    4,
		RateQPS:           rate,
		ClientHW:          hw.HPConfig(),
		TimeSensitive:     true,
		Payloads:          func(*rng.Stream) PayloadSource { return staticPayload{} },
	}
}

type staticPayload struct{}

func (staticPayload) Next() (any, int) { return struct{}{}, 64 }

// etcPayload is the Memcached payload source the experiment layer builds
// (mirrored here; importing experiment would cycle): ETC draws delivered
// through the inline-KV form, each request carrying its key's rank.
type etcPayload struct{ etc *workload.ETC }

func (p etcPayload) Next() (any, int) {
	kv, size := p.NextKV()
	return kv, size
}

func (p etcPayload) NextKV() (workload.KVRequest, int) {
	req := p.etc.Next()
	size := 40 + workload.KeyBytes
	if req.Op == workload.OpSet {
		size += req.ValueSize
	}
	return req, size
}

// memcachedAllocConfig mirrors the experiment layer's Mutilate-style
// Memcached deployment at reduced scale, with the KV fast path active.
func memcachedAllocConfig(rate float64, backend *services.Memcached) Config {
	cfg := allocBenchConfig(rate)
	etcCfg := backend.ETCConfig()
	cfg.Payloads = func(stream *rng.Stream) PayloadSource {
		etc, err := workload.NewETC(etcCfg, stream)
		if err != nil {
			panic(err)
		}
		return etcPayload{etc}
	}
	return cfg
}

// eventFunc adapts a func to sim.EventSink and completeFunc a func to
// services.CompletionSink: the stand-ins closureDriver schedules its
// closures through. The conversion itself allocates nothing; a
// capturing func does.
type (
	eventFunc    func(now sim.Time)
	completeFunc func(req *services.Request, departed sim.Time)
)

func (f eventFunc) OnEvent(now sim.Time, _ sim.EventArg) { f(now) }
func (f completeFunc) OnComplete(req *services.Request, departed sim.Time) {
	f(req, departed)
}

// closureDriver replays the pre-pooling request lifecycle against the
// same backend: a fresh services.Request and a fresh capturing closure
// per event (send, completion, receive), scheduled through the func
// adapters above. It is the in-tree baseline BenchmarkRequestPathAllocs
// and TestRequestPathAllocReduction compare the typed path against.
type closureDriver struct {
	engine   *sim.Engine
	backend  services.Backend
	sent     int
	received int
	latSum   time.Duration
}

func newClosureDriver(b services.Backend) *closureDriver {
	return &closureDriver{engine: sim.NewEngine(), backend: b}
}

// run issues n open-loop requests at the given interval and drains the
// simulation. Every request allocates: the send closure, the request
// object, the arrive closure, the completion closure and the receive
// closure — the shape of the retired hot path.
func (d *closureDriver) run(stream *rng.Stream, n int, interval time.Duration) {
	d.engine.Reset()
	for _, m := range d.backend.Machines() {
		m.ResetRun(stream.Split())
	}
	d.backend.ResetRun(d.engine, stream.Split())
	var sendNext func(i int, at sim.Time)
	sendNext = func(i int, at sim.Time) {
		if i >= n {
			return
		}
		d.engine.AtSink(at, eventFunc(func(now sim.Time) {
			req := &services.Request{ID: uint64(i), Thread: 0, Conn: i & 7,
				Scheduled: now, SentAt: now, Payload: struct{}{}}
			d.sent++
			req.SetCompletionSink(completeFunc(func(req *services.Request, departed sim.Time) {
				d.engine.AtSink(departed.Add(5*time.Microsecond), eventFunc(func(done sim.Time) {
					d.received++
					d.latSum += done.Sub(req.SentAt)
				}), sim.EventArg{})
			}))
			d.engine.AtSink(now.Add(5*time.Microsecond), eventFunc(func(t sim.Time) { d.backend.Arrive(req, t) }), sim.EventArg{})
			sendNext(i+1, now.Add(interval))
		}), sim.EventArg{})
	}
	sendNext(0, 0)
	d.engine.Run()
}

// BenchmarkRequestPathAllocs reports heap allocations per simulated
// request (run with -benchmem; the allocs/req metric is normalized per
// request) for the two lifecycles:
//
//   - typed: the production path — pooled events, pooled requests, typed
//     dispatch end to end (engine → netmodel → backend tier → generator).
//   - closure: the pre-refactor lifecycle replayed through func
//     adapters, a fresh request + closures per event.
//
// The typed path's residual per-run allocations are setup (threads, RNG
// splits, recorders), amortized across every request of the run.
func BenchmarkRequestPathAllocs(b *testing.B) {
	b.Run("typed", func(b *testing.B) {
		backend, err := services.NewSynthetic(services.DefaultSyntheticConfig())
		if err != nil {
			b.Fatal(err)
		}
		g, err := New(allocBenchConfig(200_000), backend)
		if err != nil {
			b.Fatal(err)
		}
		const runDur = 100 * time.Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		totalReqs := 0
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < b.N; i++ {
			res, err := g.RunOnce(rng.NewLabeled(42, "alloc-bench"), runDur)
			if err != nil {
				b.Fatal(err)
			}
			totalReqs += res.Sent
		}
		runtime.ReadMemStats(&ms1)
		b.StopTimer()
		if totalReqs > 0 {
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(totalReqs), "allocs/req")
		}
	})
	b.Run("memcached", func(b *testing.B) {
		// The KV path: ETC payloads over the Memcached store. With
		// rank-only keys, inline KV bodies, and the size-only store
		// lookup this is as allocation-free as the synthetic path.
		backend, err := services.NewMemcached(services.DefaultMemcachedConfig())
		if err != nil {
			b.Fatal(err)
		}
		g, err := New(memcachedAllocConfig(200_000, backend), backend)
		if err != nil {
			b.Fatal(err)
		}
		const runDur = 100 * time.Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		totalReqs := 0
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < b.N; i++ {
			res, err := g.RunOnce(rng.NewLabeled(42, "alloc-bench-kv"), runDur)
			if err != nil {
				b.Fatal(err)
			}
			totalReqs += res.Sent
		}
		runtime.ReadMemStats(&ms1)
		b.StopTimer()
		if totalReqs > 0 {
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(totalReqs), "allocs/req")
		}
	})
	b.Run("closure", func(b *testing.B) {
		backend, err := services.NewSynthetic(services.DefaultSyntheticConfig())
		if err != nil {
			b.Fatal(err)
		}
		d := newClosureDriver(backend)
		const reqsPerRun = 20_000
		b.ReportAllocs()
		b.ResetTimer()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < b.N; i++ {
			d.run(rng.NewLabeled(42, "alloc-bench-closure"), reqsPerRun, 5*time.Microsecond)
		}
		runtime.ReadMemStats(&ms1)
		b.StopTimer()
		if d.sent > 0 {
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(d.sent), "allocs/req")
		}
	})
}

// TestRequestPathAllocReduction is the acceptance gate for the pooled
// lifecycle: the typed path must allocate at least 5× less per simulated
// request than the closure lifecycle. (Measured: ~0.01 vs ~5 allocs/req,
// a ~400× reduction; the 5× bar leaves room for platform variance.)
func TestRequestPathAllocReduction(t *testing.T) {
	backend, err := services.NewSynthetic(services.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(allocBenchConfig(100_000), backend)
	if err != nil {
		t.Fatal(err)
	}
	const runDur = 50 * time.Millisecond
	// Warm the generator's engine and request pool.
	warm, err := g.RunOnce(rng.NewLabeled(7, "alloc-warm"), runDur)
	if err != nil {
		t.Fatal(err)
	}
	reqs := warm.Sent
	if reqs < 1000 {
		t.Fatalf("warmup sent only %d requests", reqs)
	}
	typedPerRun := testing.AllocsPerRun(3, func() {
		if _, err := g.RunOnce(rng.NewLabeled(7, "alloc-warm"), runDur); err != nil {
			t.Fatal(err)
		}
	})
	typedPerReq := typedPerRun / float64(reqs)

	d := newClosureDriver(backend)
	const closureReqs = 5000
	closurePerRun := testing.AllocsPerRun(3, func() {
		d.run(rng.NewLabeled(7, "alloc-closure"), closureReqs, 10*time.Microsecond)
	})
	closurePerReq := closurePerRun / float64(closureReqs)

	t.Logf("allocs per simulated request: typed=%.4f closure=%.4f (%.0f× reduction)",
		typedPerReq, closurePerReq, closurePerReq/typedPerReq)
	if typedPerReq*5 > closurePerReq {
		t.Errorf("typed path allocates %.4f/req, closure path %.4f/req: reduction below the 5× bar",
			typedPerReq, closurePerReq)
	}
}

// TestMemcachedKVPathAllocFree is the regression gate for the key-value
// hot path: with requests that carry their key's rank, inline KV
// request bodies, and the size-only store lookup, a warm Memcached run
// must stay below 0.2 heap allocations per simulated request — the
// residue is per-run setup (threads, RNG splits, recorders) plus
// first-touch overlay entries for SET keys, all amortizing toward zero
// as runs lengthen.
// Before this path existed the same run paid ≥3 allocs/request (key
// Sprintf, payload boxing, store copy-out).
func TestMemcachedKVPathAllocFree(t *testing.T) {
	backend, err := services.NewMemcached(services.DefaultMemcachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(memcachedAllocConfig(100_000, backend), backend)
	if err != nil {
		t.Fatal(err)
	}
	const runDur = 50 * time.Millisecond
	// Warm the engine, request pool and store overlay map.
	warm, err := g.RunOnce(rng.NewLabeled(11, "kv-alloc-warm"), runDur)
	if err != nil {
		t.Fatal(err)
	}
	reqs := warm.Sent
	if reqs < 1000 {
		t.Fatalf("warmup sent only %d requests", reqs)
	}
	perRun := testing.AllocsPerRun(3, func() {
		if _, err := g.RunOnce(rng.NewLabeled(11, "kv-alloc-warm"), runDur); err != nil {
			t.Fatal(err)
		}
	})
	perReq := perRun / float64(reqs)
	t.Logf("memcached KV path: %.4f allocs/request (%.0f allocs/run over %d requests)", perReq, perRun, reqs)
	if perReq > 0.2 {
		t.Errorf("memcached KV path allocates %.4f/request, want ≤ 0.2", perReq)
	}
}

// TestRunOnceEngineReuseDeterministic pins that reusing one generator's
// engine and request pool across runs is invisible to results: the same
// run stream produces bit-identical measurements on a cold and a hot
// generator.
func TestRunOnceEngineReuseDeterministic(t *testing.T) {
	build := func() *Generator {
		backend, err := services.NewSynthetic(services.DefaultSyntheticConfig())
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(allocBenchConfig(50_000), backend)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cold := build()
	coldRes, err := cold.RunOnce(rng.NewLabeled(99, "reuse"), 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	hot := build()
	// Heat the engine, pool and free lists with unrelated runs first.
	for i := 0; i < 3; i++ {
		if _, err := hot.RunOnce(rng.NewLabeled(1000+uint64(i), "heat"), 25*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	hotRes, err := hot.RunOnce(rng.NewLabeled(99, "reuse"), 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	if coldRes.Sent != hotRes.Sent || coldRes.Received != hotRes.Received {
		t.Fatalf("cold sent/received %d/%d, hot %d/%d",
			coldRes.Sent, coldRes.Received, hotRes.Sent, hotRes.Received)
	}
	if coldRes.Latency != hotRes.Latency || coldRes.SendLag != hotRes.SendLag {
		t.Errorf("engine reuse changed summaries:\ncold %+v\nhot  %+v", coldRes.Latency, hotRes.Latency)
	}
	if len(coldRes.LatenciesUs) != len(hotRes.LatenciesUs) {
		t.Fatalf("sample counts differ: %d vs %d", len(coldRes.LatenciesUs), len(hotRes.LatenciesUs))
	}
	for i := range coldRes.LatenciesUs {
		if coldRes.LatenciesUs[i] != hotRes.LatenciesUs[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, coldRes.LatenciesUs[i], hotRes.LatenciesUs[i])
		}
	}
}
