// Command bench is the repository's benchmark: it measures the host
// cost of simulating four paper-shaped workloads and checks that the
// simulated output is unchanged.
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-json out.json]
//
// The untraced pass (-trace 0) prints the end-to-end metrics: simulated
// samples per host second, repetition wall time, set-up time, allocation
// per sample and retained heap. The traced pass (-trace 1) attributes
// host CPU to the repository's layers from CPU profiles and adds exact
// counters read from the simulated output. Each workload prints its
// metrics, one per line with its unit, then one JSON line:
//
//	{"correct": true, "attempted": 53, "failed": 0, "metrics": {...}}
//
// See README.md for the metric table, the workloads and how to read the
// layer budget.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// metric is one reported quantity.
type metric struct{ name, unit string }

// endToEnd are the untraced pass's metrics.
var endToEnd = []metric{
	{"samples_per_s", "samples/s"},
	{"rep_ms.p50", "ms"},
	{"rep_ms.p75", "ms"},
	{"setup_s", "s"},
	{"alloc_b_per_sample", "B/sample"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced pass's metrics: each layer's share of host
// CPU and its CPU per simulated sample, then the exact counters and the
// sharding and tracing probes.
func perLayer() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{"layer." + l + ".pct", "%"}, metric{"layer." + l + ".cpu_ns_per_sample", "ns/sample"})
	}
	return append(ms,
		metric{"hw.client_c6_per_sample", "1/sample"},
		metric{"hw.server_c1e_per_sample", "1/sample"},
		metric{"cluster.skew", "ratio"},
		metric{"loadgen.retry_amp", "ratio"},
		metric{"loadgen.timeouts_per_sample", "1/sample"},
		metric{"faults.crash_failed_per_sample", "1/sample"},
		metric{"host.cpu_per_wall", "ratio"},
		metric{"shard.k1_over_k0", "ratio"},
		metric{"shard.k2_over_k0", "ratio"},
		metric{"shard.k_mismatch_runs", "count"},
		metric{"trace.overhead_pct", "%"},
	)
}

// setupRuns is how many fresh processes set-up time is the median of.
const setupRuns = 5

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	jsonOut  string
	role     string
}

func main() {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all, in order)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed of the first timed repetition; repetition i uses seed+i")
	fs.IntVar(&o.seconds, "seconds", 25, "measurement window per workload, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass instead of the untraced one")
	fs.StringVar(&o.jsonOut, "json", "", "write each workload's report (metrics, digests, CI, layer table, spans) to this file")
	fs.StringVar(&o.role, "role", "", "internal: run as a setup or measure child")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	switch {
	case fs.NArg() > 0:
		fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case o.trace != 0 && o.trace != 1:
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", o.trace))
	case o.seconds < 1:
		fatal(fmt.Errorf("-seconds must be at least 1, got %d", o.seconds))
	case o.workload != "" && !slices.Contains(workloadNames, o.workload):
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", ")))
	}

	window := time.Duration(o.seconds) * time.Second
	switch o.role {
	case "setup":
		secs, err := setupChild(o.workload)
		emit(map[string]float64{"setup_s": secs}, err)
	case "measure":
		c, err := newChild(o.workload)
		if err != nil {
			fatal(err)
		}
		if o.trace == 1 {
			emit(c.trace(o.seed, window))
		} else {
			emit(c.measure(o.seed, window), nil)
		}
	case "":
		os.Exit(parent(o))
	default:
		fatal(fmt.Errorf("unknown role %q", o.role))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// emit prints a child's result as its only line of standard output.
func emit(v any, err error) {
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		fatal(err)
	}
}

// baseline is the part of baseline.json the benchmark checks against;
// the rest of the file documents the recorded baseline for readers.
type baseline struct {
	Host    hostInfo          `json:"host"`
	Digests map[string]string `json:"digests"`
}

// result is one workload's outcome in the parent.
type result struct {
	name   string
	report childReport
}

func parent(o options) int {
	raw, err := files.ReadFile("baseline.json")
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("baseline.json: %w", err))
	}
	host := currentHost()
	hj, _ := json.Marshal(host) // a struct of strings and ints always marshals
	fmt.Printf("# host %s\n", hj)
	if d := host.diff(base.Host); len(d) > 0 {
		fmt.Fprintf(os.Stderr, "bench: warning: this host differs from the baseline's: %s\n", strings.Join(d, "; "))
	}

	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer()
	}
	code := 0
	var results []*result
	for _, name := range names {
		res, err := runWorkload(name, o, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
			continue
		}
		if err := res.print(os.Stdout, o, defs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
			continue
		}
		if res.report.Failed > 0 {
			code = 1
		}
		results = append(results, res)
	}
	if o.jsonOut != "" {
		if err := writeTrace(o.jsonOut, host, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

// runWorkload runs a workload's set-up probes and its measuring child,
// each in a fresh process, and checks the golden digest.
func runWorkload(name string, o options, base baseline) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// spans are the workload's root span, one per set-up probe and one
	// for the measuring child, under which the child's repetitions nest.
	spans := []span{{ID: 1, Name: "workload " + name, Start: time.Now().UnixNano()}}
	child := func(name string, start time.Time) int {
		spans = append(spans, span{ID: len(spans) + 1, Parent: 1, Name: name, Start: start.UnixNano(), End: time.Now().UnixNano()})
		return len(spans)
	}
	var setups []float64
	if o.trace == 0 {
		for i := 0; i < setupRuns; i++ {
			start := time.Now()
			var out struct {
				SetupS float64 `json:"setup_s"`
			}
			if err := runChild(self, &out, "-role", "setup", "-workload", name); err != nil {
				return nil, err
			}
			child("setup", start)
			setups = append(setups, out.SetupS)
		}
	}
	start := time.Now()
	res := &result{name: name}
	rp := &res.report
	err = runChild(self, rp, "-role", "measure", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace))
	if err != nil {
		return nil, err
	}
	measure := child("measure", start)
	for _, s := range rp.Spans {
		s.ID += measure
		s.Parent = measure
		spans = append(spans, s)
	}
	spans[0].End = time.Now().UnixNano()
	rp.Spans = spans

	if o.trace == 0 {
		rp.Metrics["setup_s"] = stats.Median(setups)
	}
	if want := base.Digests[name]; rp.Golden != want {
		rp.Failed++
		rp.Errors = append(rp.Errors, fmt.Sprintf("golden digest %s at seed %d, baseline.json records %q", rp.Golden, defaultSeed, want))
	}
	return res, nil
}

// runChild re-executes the benchmark with args and decodes its standard
// output into out.
func runChild(self string, out any, args ...string) error {
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	return nil
}

// print writes the workload's metrics, one per line with its unit, then
// the result as one JSON line.
func (r *result) print(w io.Writer, o options, defs []metric) error {
	rp := r.report
	fmt.Fprintf(w, "# %s: seed %d, %d repetitions attempted, %d failed (fail_frac %g)\n",
		r.name, o.seed, rp.Attempted, rp.Failed, float64(rp.Failed)/float64(max(rp.Attempted, 1)))
	for _, e := range rp.Errors {
		fmt.Fprintf(w, "# %s: FAILED %s\n", r.name, e)
	}
	fmt.Fprintf(w, "# %s: digest at seed %d %s", r.name, defaultSeed, rp.Golden)
	if rp.First != "" {
		fmt.Fprintf(w, ", of the first %d repetitions from seed %d %s", minTimedReps, o.seed, rp.First)
	}
	fmt.Fprintln(w)
	if rp.Scale != 0 {
		fmt.Fprintf(w, "# %s: raw wall-time p50 %.6g ms, calibration scale %.4g\n", r.name, rp.RawP50, rp.Scale)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		v, ok := rp.Metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(w, "%s %s %.6g %s", r.name, m.name, v, m.unit)
		if m.name == "rep_ms.p50" {
			fmt.Fprintf(w, "  95%% CI [%.6g, %.6g], CONFIRM ±1%%: %d repetitions", rp.P50CI.Lower, rp.P50CI.Upper, rp.Confirm)
			if !rp.Converged {
				fmt.Fprint(w, " (not reached)")
			}
		}
		fmt.Fprintln(w)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rp.Failed == 0, rp.Attempted, rp.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// writeTrace writes every workload's report: metrics, digests, the
// median's CI and CONFIRM count, the layer table and the spans.
func writeTrace(path string, host hostInfo, results []*result) error {
	type workloadTrace struct {
		Name string `json:"name"`
		*childReport
	}
	out := struct {
		Host      hostInfo        `json:"host"`
		Workloads []workloadTrace `json:"workloads"`
	}{Host: host}
	for _, r := range results {
		out.Workloads = append(out.Workloads, workloadTrace{r.name, &r.report})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
