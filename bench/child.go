package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"repro/internal/envpool"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stats"
)

// A measuring child runs one workload in a fresh process, so no process
// cache built by one workload (ETC snapshot, LSH index, pooled
// backends) serves another, and prints one childReport as its last
// line of standard output.

// minTimedReps is the fewest timed repetitions a pass makes: the
// median's non-parametric CI needs 10.
const minTimedReps = 10

// setupSamples sizes the set-up probe's single repetition: enough that
// the measured window always collects samples, small enough that the
// simulation is a rounding error beside the set-up.
const setupSamples = 100

// childReport is a measuring child's result.
type childReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Golden    string             `json:"golden"`
	First     string             `json:"first"`
	Metrics   map[string]float64 `json:"metrics"`
	// RawP50 is the median repetition wall time before calibration;
	// Scale is the median calibration factor (below 1: the kernel ran
	// slower here than on the baseline host).
	RawP50    float64          `json:"raw_rep_ms_p50,omitempty"`
	Scale     float64          `json:"calibration_scale,omitempty"`
	P50CI     stats.Interval   `json:"rep_ms_p50_ci"`
	Confirm   int              `json:"confirm_reps"`
	Converged bool             `json:"confirm_converged"`
	LayerNs   map[string]int64 `json:"layer_cpu_ns,omitempty"`
	Spans     []span           `json:"spans"`
}

// span is one timed interval of the run; Parent is the enclosing span's
// ID (0 for a root). Times are Unix nanoseconds.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// child runs one workload's repetitions and accumulates the report.
type child struct {
	ctx context.Context
	sc  experiment.Scenario
	// minReps is the fewest timed repetitions a pass makes, however long
	// they take.
	minReps int
	report  childReport
}

func newChild(name string) (*child, error) {
	sc, err := loadScenario(name)
	if err != nil {
		return nil, err
	}
	return &child{
		ctx:     envpool.NewContext(context.Background(), 1),
		sc:      sc,
		minReps: minTimedReps,
		report:  childReport{Metrics: map[string]float64{}},
	}, nil
}

// run executes one repetition of sc, records its span and counts it.
func (c *child) run(sc experiment.Scenario, seed uint64, name string) rep {
	r := runRep(c.ctx, sc, seed)
	c.report.Attempted++
	if r.Err != "" {
		c.fail(fmt.Sprintf("%s seed %d: %s", name, seed, r.Err))
	}
	c.report.Spans = append(c.report.Spans, span{
		ID: len(c.report.Spans) + 1, Name: fmt.Sprintf("%s seed=%d", name, seed),
		Start: r.Start.UnixNano(), End: r.Start.Add(r.Wall).UnixNano(),
	})
	return r
}

func (c *child) fail(msg string) {
	c.report.Failed++
	c.report.Errors = append(c.report.Errors, msg)
}

// golden runs the untimed warm-up repetition at the default seed, whose
// digest the parent checks against the recorded one.
func (c *child) golden() {
	c.report.Golden = c.run(c.sc, defaultSeed, "golden").Digest
}

// setupChild times a cold process's first repetition: spec compile,
// environment build (ETC preload snapshot or LSH index, fleet, client
// machines) and generator, with a tiny sample target.
func setupChild(name string) (float64, error) {
	// The kernel's data is built first, outside the timing, so the set-up
	// evicts it from cache as a repetition does before each calibration.
	cal := newCalibrator()
	start := time.Now()
	c, err := newChild(name)
	if err != nil {
		return 0, err
	}
	sc := c.sc
	sc.TargetSamples = setupSamples
	sc.Seed = defaultSeed
	runtime.GOMAXPROCS(procsFor(sc))
	if _, err := experiment.RunContext(c.ctx, sc); err != nil {
		return 0, err
	}
	secs := time.Since(start).Seconds()
	return secs * cal.scale(), nil
}

// measure is the untraced pass: after the warm-up, repetitions at seed,
// seed+1, … run closed-loop, each after a calibration run, until the
// window has elapsed (and at least minReps have run). Then the first
// one is replayed to check that the reused environment reproduces it.
func (c *child) measure(seed uint64, window time.Duration) *childReport {
	cal := newCalibrator()
	c.golden()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var reps []rep
	var scales []float64
	start := time.Now()
	for i := 0; i < c.minReps || time.Since(start) < window; i++ {
		scales = append(scales, cal.scale())
		reps = append(reps, c.run(c.sc, seed+uint64(i), "rep"))
	}
	runtime.ReadMemStats(&after)

	if again := c.run(c.sc, seed, "replay"); again.Digest != reps[0].Digest {
		c.fail(fmt.Sprintf("replay of seed %d: digest %s, first run gave %s", seed, again.Digest, reps[0].Digest))
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	raw := make([]float64, len(reps))
	ms := make([]float64, len(reps))
	samples := 0
	wall := 0.0
	for i, r := range reps {
		raw[i] = float64(r.Wall) / 1e6
		ms[i] = raw[i] * scales[i]
		samples += r.Metrics.Samples
		wall += ms[i] / 1e3
	}
	rp := &c.report
	rp.First = combined(reps[:c.minReps])
	rp.RawP50 = stats.Median(raw)
	rp.Scale = stats.Median(scales)
	rp.Metrics["samples_per_s"] = float64(samples) / wall
	rp.Metrics["rep_ms.p50"] = stats.Median(ms)
	rp.Metrics["rep_ms.p75"] = nearestRank(ms, 75)
	rp.Metrics["alloc_b_per_sample"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(samples)
	rp.Metrics["live_heap_mb"] = float64(live.HeapInuse) / (1 << 20)
	if iv, err := stats.NonParametricCI(ms, 0.95); err == nil {
		rp.P50CI = iv
	}
	if cr, err := stats.Confirm(ms, stats.DefaultConfirmConfig(), rng.NewLabeled(seed, "bench/confirm")); err == nil {
		rp.Confirm, rp.Converged = cr.Iterations, cr.Converged
	}
	return rp
}

// nearestRank returns the p-th percentile by the nearest-rank rule: the
// smallest value with at least p% of the data at or below it. At n = 40
// the 75th percentile is the 30th value, with 10 values beyond it.
func nearestRank(x []float64, p float64) float64 {
	s := slices.Clone(x)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// combined digests a sequence of repetition digests in order.
func combined(reps []rep) string {
	ds := make([]string, len(reps))
	for i, r := range reps {
		ds[i] = r.Digest
	}
	return digest(ds)
}

// trace is the traced pass. Pairs of repetitions at one seed run
// untraced and under the CPU profiler, in alternating order, until the
// window has elapsed; the profiles attribute host CPU to layers and the
// untraced runs give the exact counters. Two sharding probes follow.
func (c *child) trace(seed uint64, window time.Duration) (*childReport, error) {
	c.golden()

	rp := &c.report
	rp.LayerNs = map[string]int64{}
	var plainReps []rep
	var overheads []float64 // profiled ÷ untraced wall time, per pair
	var cpu, wall time.Duration
	profSamples := 0
	start := time.Now()
	for i := 0; i < c.minReps || time.Since(start) < window; i++ {
		s := seed + uint64(i)
		var plainWall, profWall time.Duration
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				cpu0 := cpuTime()
				r := c.run(c.sc, s, "rep")
				cpu += cpuTime() - cpu0
				wall += r.Wall
				plainWall = r.Wall
				plainReps = append(plainReps, r)
				continue
			}
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, fmt.Errorf("start cpu profile: %w", err)
			}
			r := c.run(c.sc, s, "profiled")
			pprof.StopCPUProfile()
			if err := attribute(buf.Bytes(), rp.LayerNs); err != nil {
				return nil, err
			}
			profWall = r.Wall
			profSamples += r.Metrics.Samples
		}
		overheads = append(overheads, float64(profWall)/float64(plainWall))
	}

	var total int64
	for _, ns := range rp.LayerNs {
		total += ns
	}
	for _, l := range layers {
		rp.Metrics["layer."+l+".pct"] = 100 * float64(rp.LayerNs[l]) / float64(total)
		rp.Metrics["layer."+l+".cpu_ns_per_sample"] = float64(rp.LayerNs[l]) / float64(profSamples)
	}
	for k, v := range counters(plainReps) {
		rp.Metrics[k] = v
	}
	rp.Metrics["host.cpu_per_wall"] = cpu.Seconds() / wall.Seconds()
	// The two runs of a pair are adjacent in time, so host drift cancels
	// within each ratio.
	rp.Metrics["trace.overhead_pct"] = 100 * (stats.Median(overheads) - 1)

	k1, k2 := c.shardRatios(seed)
	rp.Metrics["shard.k1_over_k0"] = k1
	rp.Metrics["shard.k2_over_k0"] = k2
	mismatch, err := c.shardMismatches()
	if err != nil {
		return nil, err
	}
	rp.Metrics["shard.k_mismatch_runs"] = float64(mismatch)
	return rp, nil
}

// counters reduces the simulated outputs of reps to the exact per-layer
// counters. A single backend is perfectly balanced (skew 1), and a
// client without resilience sends one attempt per request.
func counters(reps []rep) map[string]float64 {
	var samples, c6, c1e, timeouts int
	var crashFailed uint64
	var skew, amp []float64
	for _, r := range reps {
		m := r.Metrics
		samples += m.Samples
		c6 += m.ClientC6
		c1e += m.ServerC1E
		s, a := 1.0, 1.0
		if m.Cluster != nil {
			s = m.Cluster.Skew()
			for _, rs := range m.Cluster.Replicas {
				crashFailed += rs.CrashFailed
			}
		}
		if m.Resilience != nil {
			a = m.Resilience.RetryAmplification
			timeouts += m.Resilience.Stats.Timeouts
		}
		skew = append(skew, s)
		amp = append(amp, a)
	}
	n := float64(samples)
	return map[string]float64{
		"hw.client_c6_per_sample":        float64(c6) / n,
		"hw.server_c1e_per_sample":       float64(c1e) / n,
		"cluster.skew":                   stats.Median(skew),
		"loadgen.retry_amp":              stats.Median(amp),
		"loadgen.timeouts_per_sample":    float64(timeouts) / n,
		"faults.crash_failed_per_sample": float64(crashFailed) / n,
	}
}

// shardRatios times the workload's own shape at Shards 0, 1 and 2 over
// three seeds, rotating which K runs first, and returns the median over
// seeds of the wall time at K = 1 and at K = 2 over that at K = 0.
func (c *child) shardRatios(seed uint64) (k1, k2 float64) {
	var r1, r2 []float64
	for s := uint64(0); s < 3; s++ {
		var wall [3]float64
		for j := 0; j < 3; j++ {
			k := (int(s) + j) % 3
			sc := c.sc
			sc.Shards = k
			wall[k] = float64(c.run(sc, seed+s, fmt.Sprintf("probe K=%d", k)).Wall)
		}
		r1 = append(r1, wall[1]/wall[0])
		r2 = append(r2, wall[2]/wall[0])
	}
	return stats.Median(r1), stats.Median(r2)
}

// shardMismatches is the sharding differential: the fleet-k2 shape at
// K = 0 and K = 2, seeds 0–5, at its 500K QPS rate and at a 1M QPS
// overload point, counting the (seed, rate) runs whose digests differ.
// The sharded runtime promises zero; a same-nanosecond tie-break between
// shards is the known way to miss it. The runs keep exact samples: the
// streaming recorder's merged mean already differs between K = 0 and
// K = 2 in its last bits, which would hide event-order differences.
func (c *child) shardMismatches() (int, error) {
	fleet, err := loadScenario("fleet-k2")
	if err != nil {
		return 0, err
	}
	fleet.SampleMode = metrics.SampleExact
	overload := fleet
	overload.RateQPS, overload.TargetSamples = 1_000_000, 300_000
	n := 0
	for _, sc := range []experiment.Scenario{fleet, overload} {
		for s := uint64(0); s < 6; s++ {
			sc.Shards = 0
			k0 := c.run(sc, s, "differential K=0")
			sc.Shards = 2
			k2 := c.run(sc, s, "differential K=2")
			if k0.Digest != k2.Digest {
				n++
			}
		}
	}
	return n, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // fails only for a bad pointer or "who"
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
