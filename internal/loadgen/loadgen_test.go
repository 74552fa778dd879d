package loadgen

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/stats"
)

func syntheticGen(t testing.TB, clientHW hw.Config, rate float64, timeSensitive bool) *Generator {
	t.Helper()
	backend, err := services.NewSynthetic(services.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Machines:          2,
		ThreadsPerMachine: 2,
		ConnsPerThread:    5,
		RateQPS:           rate,
		ClientHW:          clientHW,
		TimeSensitive:     timeSensitive,
		Warmup:            20 * time.Millisecond,
		Net:               netmodel.DefaultConfig(),
		Payloads: func(stream *rng.Stream) PayloadSource {
			return staticSource{}
		},
	}, backend)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

type staticSource struct{}

func (staticSource) Next() (any, int) { return struct{}{}, 64 }

func TestConfigValidation(t *testing.T) {
	base := Config{
		Machines: 1, ThreadsPerMachine: 1, ConnsPerThread: 1,
		RateQPS: 1000, ClientHW: hw.HPConfig(),
		Payloads: func(*rng.Stream) PayloadSource { return staticSource{} },
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.Machines = 0
	if bad.Validate() == nil {
		t.Error("zero machines accepted")
	}
	bad = base
	bad.RateQPS = 0
	if bad.Validate() == nil {
		t.Error("zero rate accepted")
	}
	bad = base
	bad.Payloads = nil
	if bad.Validate() == nil {
		t.Error("nil payloads accepted")
	}
	bad = base
	bad.Warmup = -time.Second
	if bad.Validate() == nil {
		t.Error("negative warmup accepted")
	}
	bad = base
	bad.ClientHW.MaxCState = "C9"
	if bad.Validate() == nil {
		t.Error("invalid HW config accepted")
	}
}

func TestNewRequiresBackend(t *testing.T) {
	cfg := Config{
		Machines: 1, ThreadsPerMachine: 1, ConnsPerThread: 1,
		RateQPS: 1000, ClientHW: hw.HPConfig(),
		Payloads: func(*rng.Stream) PayloadSource { return staticSource{} },
	}
	if _, err := New(cfg, nil); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestRunOnceRejectsBadDuration(t *testing.T) {
	g := syntheticGen(t, hw.HPConfig(), 5000, true)
	if _, err := g.RunOnce(rng.New(1), 0); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestOpenLoopMaintainsRate(t *testing.T) {
	g := syntheticGen(t, hw.HPConfig(), 10_000, true)
	res, err := g.RunOnce(rng.New(2), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// An open-loop generator must deliver the offered load: 10K QPS over
	// 0.5s ≈ 5000 requests (±5%).
	if res.Sent < 4700 || res.Sent > 5300 {
		t.Errorf("sent %d requests in 0.5s at 10K QPS, want ≈5000", res.Sent)
	}
	if res.Received < res.Sent*95/100 {
		t.Errorf("received %d of %d", res.Received, res.Sent)
	}
}

func TestWarmupFiltering(t *testing.T) {
	g := syntheticGen(t, hw.HPConfig(), 10_000, true)
	res, err := g.RunOnce(rng.New(3), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 20ms warmup of a 100ms run: recorded ≈ 80% of received.
	if len(res.LatenciesUs) >= res.Received {
		t.Error("warmup samples were not discarded")
	}
	frac := float64(len(res.LatenciesUs)) / float64(res.Received)
	if frac < 0.7 || frac > 0.9 {
		t.Errorf("post-warmup fraction = %v, want ≈0.8", frac)
	}
}

// referenceSummary is stats.Summarize over a comparison sort: the
// oracle for the exact recorder's radix-sorted reduction.
func referenceSummary(x []float64) stats.Summary {
	c := slices.Clone(x)
	sort.Float64s(c)
	n := len(c)
	med := c[n/2]
	if n%2 == 0 {
		med = (c[n/2-1] + c[n/2]) / 2
	}
	return stats.Summary{
		N: n, Mean: stats.Mean(c), Median: med, StdDev: stats.StdDev(c), Min: c[0], Max: c[n-1],
		P90: stats.PercentileSorted(c, 90), P95: stats.PercentileSorted(c, 95), P99: stats.PercentileSorted(c, 99),
	}
}

// TestExactRunReduction checks an exact fixed-rate run's summaries
// against the reference reduction of its raw samples, and that each
// sample buffer was allocated once: sized for the expected count plus
// its 4·√count slack, and never regrown.
func TestExactRunReduction(t *testing.T) {
	// 20K QPS over a 280 ms window: ~5600 samples per series, enough
	// for the radix sort rather than the small-input comparison sort.
	const dur = 300 * time.Millisecond
	g := syntheticGen(t, hw.LPConfig(), 20_000, true)
	res, err := g.RunOnce(rng.New(11), dur)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceSummary(res.LatenciesUs); !reflect.DeepEqual(res.Latency, want) {
		t.Errorf("latency summary %+v, reference %+v", res.Latency, want)
	}
	if want := referenceSummary(res.SendLagUs); !reflect.DeepEqual(res.SendLag, want) {
		t.Errorf("send-lag summary %+v, reference %+v", res.SendLag, want)
	}
	expected := g.cfg.expectedSamples(dur)
	limit := expected + int(math.Ceil(4*math.Sqrt(float64(expected))))
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"latency", res.LatenciesUs}, {"send lag", res.SendLagUs}} {
		if n, c := len(s.xs), cap(s.xs); n < 4000 || n > c || c > limit {
			t.Errorf("%s: len %d, cap %d; want 4000 ≤ len ≤ cap ≤ %d (%d expected + slack)", s.name, n, c, limit, expected)
		}
	}
}

func TestLatenciesPositiveAndOrdered(t *testing.T) {
	g := syntheticGen(t, hw.LPConfig(), 20_000, true)
	res, err := g.RunOnce(rng.New(4), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.LatenciesUs {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("invalid latency %v", v)
		}
	}
	// End-to-end must exceed the 2×5µs network floor plus ~9µs service.
	if min := stats.Min(res.LatenciesUs); min < 15 {
		t.Errorf("min latency %vµs below physical floor", min)
	}
	// Send lag is non-negative by construction (sends can only be late).
	for _, v := range res.SendLagUs {
		if v < -1e-9 {
			t.Fatalf("negative send lag %v", v)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := syntheticGen(t, hw.LPConfig(), 10_000, true)
	b := syntheticGen(t, hw.LPConfig(), 10_000, true)
	ra, err := a.RunOnce(rng.New(7), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunOnce(rng.New(7), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.LatenciesUs) != len(rb.LatenciesUs) {
		t.Fatalf("sample counts differ: %d vs %d", len(ra.LatenciesUs), len(rb.LatenciesUs))
	}
	for i := range ra.LatenciesUs {
		if ra.LatenciesUs[i] != rb.LatenciesUs[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, ra.LatenciesUs[i], rb.LatenciesUs[i])
		}
	}
}

func TestLPClientSleepsHPPolls(t *testing.T) {
	lp := syntheticGen(t, hw.LPConfig(), 5_000, true)
	hp := syntheticGen(t, hw.HPConfig(), 5_000, true)
	lpRes, err := lp.RunOnce(rng.New(8), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	hpRes, err := hp.RunOnce(rng.New(8), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	deep := lpRes.ClientWakes["C1E"] + lpRes.ClientWakes["C6"]
	if deep == 0 {
		t.Error("LP client never entered a deep C-state at low load")
	}
	if hpRes.ClientWakes["C1E"]+hpRes.ClientWakes["C6"]+hpRes.ClientWakes["C1"] != 0 {
		t.Errorf("HP client entered sleep states: %v", hpRes.ClientWakes)
	}
	// The LP client's point is saving energy: its proxy must be lower.
	if lpRes.ClientEnergyProxy >= hpRes.ClientEnergyProxy {
		t.Errorf("LP energy proxy %.3f not below HP %.3f", lpRes.ClientEnergyProxy, hpRes.ClientEnergyProxy)
	}
}

func TestBusyWaitPacingSendsAccurately(t *testing.T) {
	// Time-insensitive (busy-wait) pacing keeps sends on schedule even on
	// the LP client — the §VI rationale for its recommendation.
	block := syntheticGen(t, hw.LPConfig(), 10_000, true)
	spin := syntheticGen(t, hw.LPConfig(), 10_000, false)
	blockRes, err := block.RunOnce(rng.New(9), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	spinRes, err := spin.RunOnce(rng.New(9), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	blockLag := stats.Mean(blockRes.SendLagUs)
	spinLag := stats.Mean(spinRes.SendLagUs)
	if spinLag >= blockLag {
		t.Errorf("busy-wait send lag %vµs not below block-wait %vµs", spinLag, blockLag)
	}
	if spinLag > 10 {
		t.Errorf("busy-wait send lag %vµs, want small", spinLag)
	}
}

// TestConnectionsCount checks that New builds one client machine per
// configured machine.
func TestConnectionsCount(t *testing.T) {
	g := syntheticGen(t, hw.HPConfig(), 1000, true)
	if len(g.machines) != 2 {
		t.Errorf("machines = %d, want 2", len(g.machines))
	}
}
