package loadgen

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/stats"
	"repro/internal/workload"
)

// etcSource adapts the ETC workload model to the generator.
type etcSource struct{ etc *workload.ETC }

func (s etcSource) Next() (any, int) {
	req := s.etc.Next()
	size := 40 + workload.KeyBytes
	if req.Op == workload.OpSet {
		size += req.ValueSize
	}
	return req, size
}

func memcachedGen(t testing.TB, clientHW hw.Config, rate float64) *Generator {
	t.Helper()
	backend, err := services.NewMemcached(services.DefaultMemcachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	etcCfg := backend.ETCConfig()
	g, err := New(Config{
		Machines:          4,
		ThreadsPerMachine: 1,
		ConnsPerThread:    40,
		RateQPS:           rate,
		ClientHW:          clientHW,
		TimeSensitive:     true,
		Warmup:            50 * time.Millisecond,
		Net:               netmodel.DefaultConfig(),
		Payloads: func(stream *rng.Stream) PayloadSource {
			etc, err := workload.NewETC(etcCfg, stream)
			if err != nil {
				t.Fatal(err)
			}
			return etcSource{etc}
		},
	}, backend)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSmokeMemcachedLPvsHP(t *testing.T) {
	// Short mode keeps the calibration check but trims the rate grid and
	// run length; seeded, so the reduced soak is deterministic.
	rates, duration := []float64{10_000, 100_000, 500_000}, 500*time.Millisecond
	if testing.Short() {
		rates, duration = []float64{10_000, 500_000}, 200*time.Millisecond
	}
	for _, rate := range rates {
		lp := memcachedGen(t, hw.LPConfig(), rate)
		hp := memcachedGen(t, hw.HPConfig(), rate)
		lpRes, err := lp.RunOnce(rng.New(1), duration)
		if err != nil {
			t.Fatal(err)
		}
		hpRes, err := hp.RunOnce(rng.New(1), duration)
		if err != nil {
			t.Fatal(err)
		}
		lpS := stats.Summarize(lpRes.LatenciesUs)
		hpS := stats.Summarize(hpRes.LatenciesUs)
		t.Logf("rate=%v LP: n=%d avg=%.1fus p99=%.1fus | HP: n=%d avg=%.1fus p99=%.1fus | ratio avg=%.2f p99=%.2f",
			rate, lpS.N, lpS.Mean, lpS.P99, hpS.N, hpS.Mean, hpS.P99, lpS.Mean/hpS.Mean, lpS.P99/hpS.P99)
		t.Logf("  LP wakes=%v sendlag avg=%.1fus | HP wakes=%v",
			lpRes.ClientWakes, stats.Mean(lpRes.SendLagUs), hpRes.ClientWakes)
		if lpS.Mean <= hpS.Mean {
			t.Errorf("rate=%v: LP avg %.1f not above HP avg %.1f", rate, lpS.Mean, hpS.Mean)
		}
	}
}
