package experiment

import (
	"fmt"
	"math"

	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/stats"
)

// OrderingStudy implements the OrderSage methodology the paper cites
// (Duplyakin et al., ATC'23 [12], §VII): execute the same set of scenarios
// in their natural grouped order and in a randomized interleaved order, and
// compare per-scenario results. Disagreement means state leaks between
// experiments (caches, stores, thermal state) and the execution order
// biases conclusions — the "ordering trap".
//
// In this harness the environment resets between runs, so agreement is the
// expected outcome; the study doubles as a regression test that the reset
// really is complete (a backend that forgot to clear run-scoped state
// shows up here).
type OrderingStudy struct {
	// Scenarios under comparison. Runs in each scenario is the number of
	// repetitions per ordering arm.
	Scenarios []Scenario
	// Seed controls both arms' randomness and the shuffle.
	Seed uint64
}

// OrderingArm is one execution order's outcome.
type OrderingArm struct {
	// MedianAvgUs per scenario, index-aligned with Scenarios.
	MedianAvgUs []float64
	// CIs per scenario.
	CIs []stats.Interval
}

// OrderingResult compares the two arms.
type OrderingResult struct {
	Grouped     OrderingArm
	Interleaved OrderingArm
	// MaxDiscrepancyPct is the largest |grouped − interleaved| median
	// difference relative to the grouped median, across scenarios.
	MaxDiscrepancyPct float64
	// Biased reports whether any scenario's grouped and interleaved CIs
	// are disjoint — the ordering-trap signal.
	Biased bool
}

// Run executes the study. Each scenario contributes Runs repetitions per
// arm; the grouped arm runs them scenario by scenario, the interleaved arm
// shuffles all (scenario, repetition) pairs.
func (o OrderingStudy) Run() (OrderingResult, error) {
	if len(o.Scenarios) < 2 {
		return OrderingResult{}, fmt.Errorf("experiment: ordering study needs ≥2 scenarios, have %d", len(o.Scenarios))
	}
	for i, s := range o.Scenarios {
		if err := s.Validate(); err != nil {
			return OrderingResult{}, fmt.Errorf("experiment: ordering scenario %d: %w", i, err)
		}
	}

	type job struct{ scenario, rep int }
	var jobs []job
	for si, s := range o.Scenarios {
		for r := 0; r < s.Runs; r++ {
			jobs = append(jobs, job{si, r})
		}
	}

	execute := func(order []job, label string) (OrderingArm, error) {
		// Backends persist across a whole arm (like a testbed that stays
		// up between experiments), so leaked state would carry over.
		runners := make([]func(*rng.Stream) (float64, error), len(o.Scenarios))
		samples := make([][]float64, len(o.Scenarios))
		for _, j := range order {
			if runners[j.scenario] == nil {
				run, err := newScenarioRunner(o.Scenarios[j.scenario])
				if err != nil {
					return OrderingArm{}, err
				}
				runners[j.scenario] = run
			}
			stream := rng.NewLabeled(o.Seed, fmt.Sprintf("ordering/%s/s%d/r%d", label, j.scenario, j.rep))
			avg, err := runners[j.scenario](stream)
			if err != nil {
				return OrderingArm{}, err
			}
			samples[j.scenario] = append(samples[j.scenario], avg)
		}
		arm := OrderingArm{}
		for _, x := range samples {
			arm.MedianAvgUs = append(arm.MedianAvgUs, stats.Median(x))
			if iv, err := stats.NonParametricCI(x, 0.95); err == nil {
				arm.CIs = append(arm.CIs, iv)
			} else {
				arm.CIs = append(arm.CIs, stats.Interval{
					Point: stats.Median(x), Lower: stats.Min(x), Upper: stats.Max(x), Confidence: 0.95,
				})
			}
		}
		return arm, nil
	}

	grouped, err := execute(jobs, "grouped")
	if err != nil {
		return OrderingResult{}, err
	}

	shuffled := append([]job(nil), jobs...)
	shuffleStream := rng.NewLabeled(o.Seed, "ordering/shuffle")
	for i := len(shuffled) - 1; i > 0; i-- {
		j := shuffleStream.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	interleaved, err := execute(shuffled, "interleaved")
	if err != nil {
		return OrderingResult{}, err
	}

	res := OrderingResult{Grouped: grouped, Interleaved: interleaved}
	for i := range o.Scenarios {
		g, iv := grouped.MedianAvgUs[i], interleaved.MedianAvgUs[i]
		if g != 0 {
			d := 100 * math.Abs(g-iv) / g
			if d > res.MaxDiscrepancyPct {
				res.MaxDiscrepancyPct = d
			}
		}
		if !grouped.CIs[i].Overlaps(interleaved.CIs[i]) {
			res.Biased = true
		}
	}
	return res, nil
}

// newScenarioRunner builds the scenario's backend and generator once
// and returns a function that runs one repetition on them and reports
// its mean latency.
func newScenarioRunner(s Scenario) (func(*rng.Stream) (float64, error), error) {
	backend, err := s.buildBackend()
	if err != nil {
		return nil, err
	}
	warmup, total := s.runTiming()
	gen, err := loadgen.New(s.generatorConfig(backend, warmup), backend)
	if err != nil {
		return nil, err
	}
	return func(stream *rng.Stream) (float64, error) {
		rr, err := gen.RunOnce(stream, total)
		if err != nil {
			return 0, err
		}
		if rr.Latency.N == 0 {
			return 0, fmt.Errorf("experiment: ordering run collected no samples")
		}
		return rr.Latency.Mean, nil
	}, nil
}
