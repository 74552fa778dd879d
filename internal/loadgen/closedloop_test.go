package loadgen

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/stats"
)

func closedGen(t testing.TB, clientHW hw.Config, clients int, think time.Duration) *ClosedLoopGenerator {
	t.Helper()
	backend, err := services.NewSynthetic(services.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewClosedLoop(ClosedLoopConfig{
		Machines:          2,
		ThreadsPerMachine: 2,
		ClientsPerThread:  clients,
		ThinkTime:         think,
		ClientHW:          clientHW,
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

func TestClosedLoopValidation(t *testing.T) {
	base := ClosedLoopConfig{
		Machines: 1, ThreadsPerMachine: 1, ClientsPerThread: 1,
		ClientHW: hw.HPConfig(),
		Payloads: func(*rng.Stream) PayloadSource { return staticSource{} },
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.ClientsPerThread = 0
	if bad.Validate() == nil {
		t.Error("zero clients accepted")
	}
	bad = base
	bad.ThinkTime = -time.Second
	if bad.Validate() == nil {
		t.Error("negative think time accepted")
	}
	bad = base
	bad.Payloads = nil
	if bad.Validate() == nil {
		t.Error("nil payloads accepted")
	}
	if _, err := NewClosedLoop(base, nil); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestClosedLoopPopulation(t *testing.T) {
	g := closedGen(t, hw.HPConfig(), 5, 0)
	if g.Population() != 2*2*5 {
		t.Errorf("population = %d, want 20", g.Population())
	}
}

func TestClosedLoopThroughputFollowsLittlesLaw(t *testing.T) {
	// 20 clients, zero think: throughput ≈ N / latency.
	g := closedGen(t, hw.HPConfig(), 5, 0)
	res, err := g.RunOnce(rng.New(1), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputQPS <= 0 {
		t.Fatal("no throughput measured")
	}
	meanLatency := time.Duration(res.MeanLatencyUs() * 1e3)
	predicted := ExpectedThroughput(g.Population(), meanLatency, 0)
	ratio := res.ThroughputQPS / predicted
	if math.Abs(ratio-1) > 0.15 {
		t.Errorf("throughput %.0f vs Little's-law prediction %.0f (ratio %.2f)",
			res.ThroughputQPS, predicted, ratio)
	}
}

func TestClosedLoopThinkTimeReducesThroughput(t *testing.T) {
	noThink := closedGen(t, hw.HPConfig(), 5, 0)
	thinking := closedGen(t, hw.HPConfig(), 5, 500*time.Microsecond)
	a, err := noThink.RunOnce(rng.New(2), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := thinking.RunOnce(rng.New(2), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if b.ThroughputQPS >= a.ThroughputQPS/2 {
		t.Errorf("think time barely reduced throughput: %.0f vs %.0f", b.ThroughputQPS, a.ThroughputQPS)
	}
}

func TestClosedLoopLPMeasuresHigherAndThrottlesItself(t *testing.T) {
	// §II: in a closed loop, client timing inaccuracy also shifts the
	// next request. The LP client both measures higher latency AND
	// achieves lower throughput for the same population.
	lp := closedGen(t, hw.LPConfig(), 5, time.Millisecond)
	hp := closedGen(t, hw.HPConfig(), 5, time.Millisecond)
	lpRes, err := lp.RunOnce(rng.New(3), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	hpRes, err := hp.RunOnce(rng.New(3), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if lpRes.MeanLatencyUs() <= hpRes.MeanLatencyUs() {
		t.Errorf("closed-loop LP latency %.1f not above HP %.1f",
			lpRes.MeanLatencyUs(), hpRes.MeanLatencyUs())
	}
	if lpRes.ThroughputQPS >= hpRes.ThroughputQPS {
		t.Errorf("closed-loop LP throughput %.0f not below HP %.0f (workload distortion)",
			lpRes.ThroughputQPS, hpRes.ThroughputQPS)
	}
}

// TestClosedLoopDeterministic pins the closed-loop generator's full
// output: identical across two generators and across consecutive runs of
// one reused generator (engine, pool and machine reuse must not leak
// state), and equal to a recorded fingerprint so a setup refactor cannot
// silently change what the generator simulates.
func TestClosedLoopDeterministic(t *testing.T) {
	run := func(g *ClosedLoopGenerator) ClosedLoopResult {
		t.Helper()
		res, err := g.RunOnce(rng.New(4), 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reused := closedGen(t, hw.LPConfig(), 3, 0)
	ra := run(reused)
	if rb := run(closedGen(t, hw.LPConfig(), 3, 0)); !reflect.DeepEqual(ra, rb) {
		t.Error("closed-loop runs differ across generators")
	}
	if again := run(reused); !reflect.DeepEqual(ra, again) {
		t.Error("closed-loop runs differ across RunOnce calls on one generator")
	}

	n := len(ra.LatenciesUs)
	if n == 0 {
		t.Fatal("no samples")
	}
	got := [4]float64{float64(ra.Sent), float64(ra.Received), ra.LatenciesUs[0], ra.LatenciesUs[n-1]}
	want := [4]float64{closedSent, closedReceived, closedFirstUs, closedLastUs}
	if got != want {
		t.Errorf("closed-loop fingerprint (sent, received, first µs, last µs) = %v, want %v", got, want)
	}
}

// The closed-loop fingerprint of TestClosedLoopDeterministic.
const (
	closedSent     = 28328
	closedReceived = 28322
	closedFirstUs  = 69.101
	closedLastUs   = 72.95
)

func TestClosedLoopLatenciesSane(t *testing.T) {
	g := closedGen(t, hw.LPConfig(), 4, 200*time.Microsecond)
	res, err := g.RunOnce(rng.New(5), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LatenciesUs) == 0 {
		t.Fatal("no samples")
	}
	if min := stats.Min(res.LatenciesUs); min < 15 {
		t.Errorf("min latency %.1fµs below physical floor", min)
	}
}

func TestClosedLoopRejectsBadDuration(t *testing.T) {
	g := closedGen(t, hw.HPConfig(), 1, 0)
	if _, err := g.RunOnce(rng.New(1), 0); err == nil {
		t.Error("zero duration accepted")
	}
}
