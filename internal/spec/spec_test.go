package spec

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/workload"
)

const fullSpec = `
version: 1
name: everything
description: one of each section
service: synthetic
client: LP
server: smt
rates: [5000, 10000]
runs: 3
duration: 250ms
synth_delay: 100us
replicas: 4
router: least-outstanding
autoscale:
  min: 2
  max: 4
  interval: 5ms
  signal: latency
  scale_up_at: 200
  scale_down_at: 50
  cooldown: 20ms
classes:
  - name: interactive
    fraction: 0.7
    arrival:
      process: gamma
      cv: 3
    think:
      dist: exponential
      mean: 2ms
    size:
      dist: lognormal
      mean: 512
      sigma: 0.8
  - name: sessions
    fraction: 0.3
    arrival:
      process: onoff
      on_mean: 50ms
      off_mean: 150ms
phases:
  - name: ramp
    duration: 100ms
    rate_scale: 1
    end_scale: 2
  - name: peak
    duration: 150ms
    rate_scale: 2
phases_repeat: true
faults:
  crashes:
    - replica: 1
      start_frac: 0.35
      end_frac: 0.65
  stragglers:
    - replica: 2
      start_frac: 0.2
      end_frac: 0.8
      factor: 4
  link:
    - start_frac: 0.4
      end_frac: 0.6
      delay_factor: 10
resilience:
  timeout: 2ms
  retries: 2
  retry_base: 200us
  retry_cap: 2ms
hiccups:
  rate_per_sec: 2.4
  mean_duration: 700us
`

func TestParseFullSpec(t *testing.T) {
	s, err := Parse([]byte(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	sc := s.Scenario(s.SweepRates()[0])
	if sc.Service != experiment.ServiceSynthetic || sc.RateQPS != 5000 {
		t.Errorf("scenario service/rate = %v/%v", sc.Service, sc.RateQPS)
	}
	if sc.Label != "LP-everything" {
		t.Errorf("label = %q, want LP-everything", sc.Label)
	}
	if sc.Duration != 250*time.Millisecond || sc.SynthDelay != 100*time.Microsecond {
		t.Errorf("duration/delay = %v/%v", sc.Duration, sc.SynthDelay)
	}
	if !sc.Client.SMT && !sc.Server.SMT {
		t.Errorf("server: smt did not enable SMT: %+v", sc.Server)
	}
	if len(sc.Classes) != 2 || sc.Classes[1].Arrival.Process != workload.ArrivalOnOff ||
		sc.Classes[1].Arrival.OffMean != 150*time.Millisecond {
		t.Errorf("classes did not compile: %+v", sc.Classes)
	}
	if len(sc.Phases) != 2 || sc.Phases[0].EndScale != 2 || !sc.PhasesRepeat {
		t.Errorf("phases did not compile: %+v", sc.Phases)
	}
	if sc.Replicas != 4 || sc.Router != cluster.RouterLeastOutstanding {
		t.Errorf("cluster shape = %d/%q", sc.Replicas, sc.Router)
	}
	if sc.Autoscale == nil || sc.Autoscale.Signal != cluster.SignalLatency || sc.Autoscale.ScaleUpAt != 200 {
		t.Errorf("autoscale did not compile: %+v", sc.Autoscale)
	}
	if sc.Faults.Empty() || len(sc.Faults.Crashes) != 1 || sc.Faults.Crashes[0].Replica != 1 ||
		len(sc.Faults.Stragglers) != 1 || sc.Faults.Stragglers[0].Factor != 4 ||
		len(sc.Faults.Link) != 1 || sc.Faults.Link[0].DelayFactor != 10 {
		t.Errorf("faults did not compile: %+v", sc.Faults)
	}
	if sc.Resilience == nil || sc.Resilience.Timeout != 2*time.Millisecond ||
		sc.Resilience.Retries != 2 || sc.Resilience.RetryBase != 200*time.Microsecond {
		t.Errorf("resilience did not compile: %+v", sc.Resilience)
	}
	if sc.HiccupRate != 2.4 || sc.HiccupMean != 700*time.Microsecond {
		t.Errorf("hiccups did not compile: %g/%v", sc.HiccupRate, sc.HiccupMean)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("compiled scenario invalid: %v", err)
	}
}

func TestParseJSONSpec(t *testing.T) {
	s, err := Parse([]byte(`{
		"version": 1, "name": "js", "service": "memcached",
		"rates": [100000], "runs": 2, "samples": 5000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "js" || s.Samples != 5000 {
		t.Errorf("json decode: %+v", s)
	}
}

func TestSpecDefaults(t *testing.T) {
	s, err := Parse([]byte("version: 1\nname: d\nservice: memcached\nrate: 1000\nruns: 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	sc := s.Scenario(1000)
	if name := sc.Client.Name; name != "HP" {
		t.Errorf("default client %q, want HP", name)
	}
	if got := sc.Server.Name; got == "" {
		t.Errorf("default server unresolved")
	}
	if rates := s.SweepRates(); len(rates) != 1 || rates[0] != 1000 {
		t.Errorf("rate shorthand: %v", rates)
	}
}

// TestSpecValidationTable is the loader-hardening satellite: every
// malformed document must fail with a descriptive error, not load and
// misbehave later.
func TestSpecValidationTable(t *testing.T) {
	base := "version: 1\nname: t\nservice: synthetic\nrate: 1000\nruns: 1\n"
	cases := []struct {
		name, doc, want string
	}{
		{"version", strings.Replace(base, "version: 1", "version: 2", 1), "unsupported version"},
		{"no-name", strings.Replace(base, "name: t\n", "", 1), "missing name"},
		{"no-service", strings.Replace(base, "service: synthetic\n", "", 1), "missing service"},
		{"bad-service", strings.Replace(base, "synthetic", "redis", 1), "unknown service"},
		{"bad-client", base + "client: XP\n", "unknown client"},
		{"bad-server", base + "server: zen\n", "unknown server"},
		{"no-rates", strings.Replace(base, "rate: 1000\n", "", 1), "missing rates"},
		{"zero-rate", strings.Replace(base, "rate: 1000", "rate: 0", 1), "missing rates"},
		{"negative-rate", strings.Replace(base, "rate: 1000", "rate: -5", 1), "must be positive"},
		{"huge-rate", strings.Replace(base, "rate: 1000", "rate: 1e12", 1), "got 1e+12"},
		{"huge-second-rate", strings.Replace(base, "rate: 1000", "rates: [1000, 1e12]", 1), "got 1e+12"},
		{"tiny-rate", strings.Replace(base, "rate: 1000", "rate: 1e-300", 1), "rate 1e-300 QPS makes a"},
		{"tiny-rate-with-duration", strings.Replace(base, "rate: 1000", "rate: 1e-300\nduration: 1s", 1), "rate 1e-300 QPS expects"},
		{"rate-and-rates", base + "rates: [1, 2]\n", "mutually exclusive"},
		{"zero-runs", strings.Replace(base, "runs: 1", "runs: 0", 1), "runs must be"},
		{"negative-samples", base + "samples: -1\n", "negative samples"},
		{"samples-and-duration", base + "samples: 10\nduration: 1s\n", "mutually exclusive"},
		{"bad-duration", base + "duration: fast\n", "bad duration"},
		{"numeric-duration", base + "duration: 30\n", "must be a string"},
		{"delay-on-memcached", strings.Replace(base, "synthetic", "memcached", 1) + "synth_delay: 1ms\n", "only applies"},
		{"unknown-key", base + "ratez: 5\n", "unknown field"},
		{"unknown-nested-key", base + "classes:\n  - name: a\n    fraction: 1\n    color: red\n", "unknown field"},
		{"router-no-replicas", base + "router: round-robin\n", "without replicas"},
		{"bad-router", base + "replicas: 2\nrouter: random\n", "router"},
		{"fractions", base + "classes:\n  - name: a\n    fraction: 0.5\n", "sum to"},
		{"zero-fraction", base + "classes:\n  - name: a\n    fraction: 0\n", "fraction"},
		{"tiny-fraction", base + "classes:\n  - name: a\n    fraction: 1\n  - name: b\n    fraction: 1e-15\n", `class "b" (fraction 1e-15) offers`},
		{"gamma-cv", base + "classes:\n  - name: a\n    fraction: 1\n    arrival:\n      process: gamma\n      cv: -1\n", "cv > 0"},
		{"weibull-shape", base + "classes:\n  - name: a\n    fraction: 1\n    arrival:\n      process: weibull\n      shape: 0\n", "shape > 0"},
		{"weibull-tiny-shape", base + "classes:\n  - name: a\n    fraction: 1\n    arrival:\n      process: weibull\n      shape: 0.001\n", "weibull shape 0.001 is too small"},
		{"weibull-overflows-at-thread-rate", base + "classes:\n  - name: a\n    fraction: 1\n    arrival:\n      process: weibull\n      shape: 0.00587\n", `class "a" at its per-thread rate of 250 QPS`},
		{"bad-process", base + "classes:\n  - name: a\n    fraction: 1\n    arrival:\n      process: pareto\n", "unknown arrival process"},
		{"zero-phase", base + "phases:\n  - name: p\n    duration: 0s\n    rate_scale: 1\n", "must be positive"},
		{"zero-scale", base + "phases:\n  - name: p\n    duration: 1s\n    rate_scale: 0\n", "rate scale"},
		{"tiny-scale", base + "phases:\n  - name: p\n    duration: 1ms\n    rate_scale: 1e-300\n", `phase "p" (scale 1e-300) offers`},
		{"tiny-end-scale", base + "phases:\n  - name: p\n    duration: 1ms\n    rate_scale: 1\n    end_scale: 1e-300\n", `phase "p" (scale 1e-300) offers`},
		{"repeat-no-phases", base + "phases_repeat: true\n", "phases_repeat"},
		{"bad-autoscale", base + "replicas: 2\nautoscale:\n  min: 3\n  max: 1\n", "bounds"},
		{"faults-no-replicas", base + "faults:\n  crashes:\n    - replica: 0\n      start_frac: 0.1\n      end_frac: 0.2\n", "replicated fleet"},
		{"faults-bad-window", base + "replicas: 2\nfaults:\n  crashes:\n    - replica: 0\n      start_frac: 0.5\n      end_frac: 0.2\n", "must satisfy"},
		{"faults-bad-replica", base + "replicas: 2\nfaults:\n  crashes:\n    - replica: 9\n      start_frac: 0.1\n      end_frac: 0.2\n", "out of range"},
		{"straggler-factor", base + "replicas: 2\nfaults:\n  stragglers:\n    - replica: 0\n      start_frac: 0.1\n      end_frac: 0.2\n      factor: 0.5\n", "must be ≥ 1"},
		{"loss-no-timeout", base + "replicas: 2\nfaults:\n  link:\n    - start_frac: 0.1\n      end_frac: 0.2\n      loss: 0.1\n", "require a request timeout"},
		{"retries-no-timeout", base + "resilience:\n  retries: 2\n", "retries require a request timeout"},
		{"hedge-no-timeout", base + "resilience:\n  hedge: 1ms\n", "hedged requests require"},
		{"hedge-above-timeout", base + "resilience:\n  timeout: 1ms\n  hedge: 2ms\n", "must be below the timeout"},
		{"hedge-bad-router", base + "replicas: 2\nrouter: round-robin\nresilience:\n  timeout: 2ms\n  hedge: 1ms\n", "hedged requests on a cluster"},
		{"negative-timeout", base + "resilience:\n  timeout: -1ms\n", "timeout"},
		{"negative-hiccup-rate", base + "hiccups:\n  rate_per_sec: -1\n", "negative hiccup rate_per_sec"},
		{"huge-hiccup-rate", strings.Replace(base, "synthetic", "memcached", 1) + "hiccups:\n  rate_per_sec: 1e12\n  mean_duration: 500us\n", "hiccup rate must be non-negative, finite and at most 1e+09 per second, got 1e+12"},
		{"negative-hiccup-mean", base + "hiccups:\n  rate_per_sec: 1\n  mean_duration: -1ms\n", "negative hiccup mean_duration"},
		{"random-crash-rate", base + "replicas: 2\nfaults:\n  random_crashes:\n    rate_per_sec: 0\n    mean_downtime: 1ms\n", "must be > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("spec loaded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	if _, err := Parse([]byte(base)); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
}

// FuzzParseSpec checks the whole pipeline — lexer, parser, JSON
// round-trip, validators — never panics on arbitrary input.
func FuzzParseSpec(f *testing.F) {
	f.Add(fullSpec)
	f.Add("version: 1\nname: t\nservice: synthetic\nrate: 1000\nruns: 1\n")
	f.Add(`{"version": 1, "name": "j", "service": "memcached", "rate": 1, "runs": 1}`)
	f.Add("version: -1e308\nrate: [\n")
	f.Add("version: 1\nname: f\nservice: memcached\nrate: 1000\nruns: 1\nreplicas: 2\nfaults:\n  crashes:\n    - replica: 1\n      start_frac: 0.3\n      end_frac: 0.6\nresilience:\n  timeout: 2ms\n  retries: 1\n")
	f.Add("version: 1\nname: h\nservice: synthetic\nrate: 1000\nruns: 1\nhiccups:\n  rate_per_sec: 0.5\n  mean_duration: 1ms\nresilience:\n  timeout: 5ms\n  hedge: 1ms\n")
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := Parse([]byte(doc))
		if err != nil {
			return
		}
		// Whatever loads must also compile to a valid scenario.
		sc := s.Scenario(s.SweepRates()[0])
		sc.Runs = 1
		if err := sc.Validate(); err != nil {
			t.Fatalf("loaded spec compiles to invalid scenario: %v", err)
		}
	})
}
