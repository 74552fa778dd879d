package loadgen

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/stats"
)

func genWithPoint(t *testing.T, clientHW hw.Config, point core.MeasurementPoint) *Generator {
	t.Helper()
	backend, err := services.NewSynthetic(services.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Machines:          2,
		ThreadsPerMachine: 2,
		ConnsPerThread:    5,
		RateQPS:           5_000,
		ClientHW:          clientHW,
		TimeSensitive:     true,
		Point:             point,
		Warmup:            20 * time.Millisecond,
		Net:               netmodel.DefaultConfig(),
		Payloads:          func(*rng.Stream) PayloadSource { return staticSource{} },
	}, backend)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func meanAt(t *testing.T, clientHW hw.Config, point core.MeasurementPoint) float64 {
	t.Helper()
	g := genWithPoint(t, clientHW, point)
	res, err := g.RunOnce(rng.New(77), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return stats.Mean(res.LatenciesUs)
}

func TestMeasurementPointsOrdering(t *testing.T) {
	// For the same LP client, the three measurement points must be strictly
	// nested: NIC < kernel-socket < in-app, since each later point adds
	// client-side path segments to the measurement.
	nic := meanAt(t, hw.LPConfig(), core.NICHardware)
	kernel := meanAt(t, hw.LPConfig(), core.KernelSocket)
	inApp := meanAt(t, hw.LPConfig(), core.InApp)
	t.Logf("LP measured means: NIC=%.1fµs kernel=%.1fµs in-app=%.1fµs", nic, kernel, inApp)
	if !(nic < kernel && kernel < inApp) {
		t.Errorf("measurement points not nested: NIC=%.1f kernel=%.1f in-app=%.1f", nic, kernel, inApp)
	}
	// The kernel point adds only IRQ + uncore DMA (a few µs); the in-app
	// point adds the wake/ctx/parse chain (tens of µs on LP).
	if inApp-kernel < 5*(kernel-nic) {
		t.Errorf("in-app overhead (%.1fµs) should dwarf kernel-point overhead (%.1fµs) on LP",
			inApp-kernel, kernel-nic)
	}
}

func TestNICTimestampingHidesClientConfig(t *testing.T) {
	// §II: with a NIC point of measurement, the client configuration
	// cannot pollute the measurement — LP and HP should agree closely.
	lp := meanAt(t, hw.LPConfig(), core.NICHardware)
	hp := meanAt(t, hw.HPConfig(), core.NICHardware)
	t.Logf("NIC-measured: LP=%.1fµs HP=%.1fµs", lp, hp)
	ratio := lp / hp
	if ratio > 1.35 {
		t.Errorf("NIC-measured LP/HP ratio = %.2f, want ≈1 (client invisible)", ratio)
	}
	// Contrast: in-app measurement shows the full gap.
	lpApp := meanAt(t, hw.LPConfig(), core.InApp)
	hpApp := meanAt(t, hw.HPConfig(), core.InApp)
	if lpApp/hpApp < ratio+0.3 {
		t.Errorf("in-app ratio %.2f not clearly above NIC ratio %.2f", lpApp/hpApp, ratio)
	}
}
