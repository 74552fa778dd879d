// Package loadgen implements the client side of the paper's methodology:
// workload generators running on simulated client machines, following the
// taxonomy of §II — open-loop request generation with time-sensitive
// (block-wait) or time-insensitive (busy-wait) inter-arrival pacing, with
// the point of measurement inside the generator itself.
//
// Because the point of measurement is in-application, every response
// timestamp includes whatever the client hardware puts in its way: C-state
// exit latency, the DVFS ramp after a wake, and the context switch to the
// generator thread. This package is where the paper's client-caused
// measurement distortion physically happens.
package loadgen

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Client-side event-loop processing costs (nominal at the 2.2 GHz base
// frequency; the hardware model stretches them under DVFS).
const (
	sendWork = 2500 * time.Nanosecond // build + timestamp + write a request
	recvWork = 3500 * time.Nanosecond // read + parse + timestamp a response

	// pollDispatch is the cost to hand an event to the generator thread
	// when the core was busy-polling (idle=poll or spinning): no C-state
	// exit and no full context switch, just a queue hand-off.
	pollDispatch = 1500 * time.Nanosecond
)

// PayloadSource produces service-specific request payloads.
type PayloadSource interface {
	// Next returns the payload and the request's wire size in bytes.
	Next() (payload any, requestBytes int)
}

// KVPayloadSource is an optional PayloadSource extension for key-value
// workloads: NextKV returns the request body by value so the generator
// can store it inline in the pooled services.Request (Request.KV)
// instead of boxing it into the Payload interface — the boxing was the
// last per-request heap allocation on the Memcached path. Sources that
// implement it must draw from their stream exactly as Next would, so
// the two forms simulate identical systems.
type KVPayloadSource interface {
	NextKV() (kv workload.KVRequest, requestBytes int)
}

// PayloadFactory builds a per-thread payload source from a per-run stream.
type PayloadFactory func(stream *rng.Stream) PayloadSource

// Config describes a workload-generator deployment (Fig. 1: a set of
// client machines running generator threads against the service).
type Config struct {
	// Machines is the number of client machines (paper: 4 workload
	// generator clients for Memcached).
	Machines int
	// ThreadsPerMachine is the number of event-loop threads per machine,
	// each pinned to its own core.
	ThreadsPerMachine int
	// ConnsPerThread is how many connections each thread multiplexes
	// (4 machines × 4 threads × 10 conns = the paper's 160 connections).
	ConnsPerThread int
	// RateQPS is the aggregate offered load.
	RateQPS float64
	// ClientHW is the client hardware configuration (LP or HP, Table II).
	ClientHW hw.Config
	// TimeSensitive selects block-wait pacing (Mutilate, wrk2) when true,
	// busy-wait polling (the HDSearch client) when false.
	TimeSensitive bool
	// Point selects where latency is timestamped (§II, after Lancet's
	// taxonomy). InApp (the default, and what every generator the paper
	// studies does) exposes the measurement to all client-side hardware
	// overheads; KernelSocket stops the clock at softirq delivery;
	// NICHardware stops it at the wire and excludes the client entirely.
	Point core.MeasurementPoint
	// TraceEvery records a full per-request timeline for every Nth
	// request (0 disables tracing). Traces attribute each measured
	// microsecond to its mechanism: send wake, network, server residence,
	// receive wake, parse.
	TraceEvery int
	// Payloads builds each thread's request source.
	Payloads PayloadFactory
	// Warmup discards samples measured before this offset into the run.
	Warmup time.Duration
	// Net configures the client↔server links.
	Net netmodel.Config
	// Recorders builds each run's measurement recorders (latency and
	// send lag) from the run's RNG stream. Nil selects
	// metrics.ExactFactory: retain-everything recorders whose raw
	// samples surface in RunResult.LatenciesUs/SendLagUs, the historical
	// behaviour. Streaming factories reduce in O(1) memory instead; see
	// package metrics.
	Recorders metrics.Factory
	// Classes optionally splits RateQPS into a workload mix: every
	// thread runs every class at Fraction × its per-thread rate, each
	// class with its own arrival process, think time and size
	// distribution. Empty keeps the legacy single Poisson process,
	// byte-identical to pre-mix results.
	Classes []ClassConfig
	// Phases optionally modulates the offered rate over virtual time
	// (see PhaseConfig). Empty applies no modulation.
	Phases []PhaseConfig
	// PhasesRepeat cycles the phase program for the whole run (diurnal
	// load curves) instead of holding the last phase's scale after one
	// pass.
	PhasesRepeat bool
	// Resilience enables client-side fault tolerance — per-attempt
	// timeouts, bounded retries with decorrelated-jitter backoff, and
	// optional hedged requests (see resilience.go). The zero value
	// disables it and keeps the request path allocation-free and
	// byte-identical to pre-resilience releases.
	Resilience ResilienceConfig
	// LinkFaults degrades the client↔server links over fractions of the
	// run (delay stretch and/or message loss); empty leaves them healthy.
	// Windows apply to both directions of every thread's link pair. Loss
	// windows require Resilience.Timeout (a lost request otherwise never
	// completes).
	LinkFaults []faults.LinkWindow
	// Shards partitions each run across this many per-shard simulation
	// engines running in parallel under conservative synchronization
	// (see sharded.go). 0 keeps the legacy single-engine path; K ≥ 1
	// shards whole client machines (and backend replicas) round-robin
	// across K engines, with the network link's minimum delay as
	// lookahead. Sharded output matches the single-engine run at the
	// scales the differential tests cover; same-nanosecond hand-off and
	// record-merge ties can still order events differently at scale
	// (see sharded.go). Requires Net.Base > 0 and TraceEvery == 0; K
	// must not exceed the machine+replica partition count (checked at
	// run time).
	Shards int
}

// mixed reports whether the config takes the class/phase path; false is
// the legacy single-Poisson path, untouched byte for byte.
func (c Config) mixed() bool { return len(c.Classes) > 0 || len(c.Phases) > 0 }

// mixClasses returns the mix the run simulates: the configured classes,
// or one implicit full-rate Poisson class when only phases are set.
func (c Config) mixClasses() []ClassConfig {
	if len(c.Classes) > 0 {
		return c.Classes
	}
	return []ClassConfig{{Name: "default", Fraction: 1}}
}

// recorders returns the configured factory, defaulting to exact.
func (c Config) recorders() metrics.Factory {
	if c.Recorders != nil {
		return c.Recorders
	}
	return metrics.ExactFactory
}

// expectedSamples is how many post-warmup samples a run of the given
// duration records at the offered rate: RateQPS over the measured
// window, duration − Warmup. The recorders size their buffers from it.
func (c Config) expectedSamples(duration time.Duration) int {
	window := duration - c.Warmup
	if window <= 0 {
		return 0
	}
	return int(c.RateQPS * window.Seconds())
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Machines < 1 || c.ThreadsPerMachine < 1 || c.ConnsPerThread < 1 {
		return fmt.Errorf("loadgen: need ≥1 machine/thread/conn, got %d/%d/%d",
			c.Machines, c.ThreadsPerMachine, c.ConnsPerThread)
	}
	if c.RateQPS <= 0 {
		return fmt.Errorf("loadgen: rate must be positive, got %v", c.RateQPS)
	}
	if c.Payloads == nil {
		return fmt.Errorf("loadgen: payload factory is required")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("loadgen: negative warmup %v", c.Warmup)
	}
	if err := ValidateClasses(c.Classes); err != nil {
		return err
	}
	if err := ValidatePhases(c.Phases); err != nil {
		return err
	}
	if err := c.Resilience.Validate(); err != nil {
		return err
	}
	if err := faults.ValidateLinkWindows(c.LinkFaults); err != nil {
		return err
	}
	if !c.Resilience.Enabled() {
		for _, w := range c.LinkFaults {
			if w.Loss > 0 {
				return fmt.Errorf("loadgen: link loss windows require a request timeout (lost requests never complete)")
			}
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("loadgen: negative shard count %d", c.Shards)
	}
	if c.Shards > 0 {
		if c.Net.MinDelay() <= 0 {
			return fmt.Errorf("loadgen: sharding needs a positive link base delay for lookahead, got %v", c.Net.Base)
		}
		if c.TraceEvery > 0 {
			return fmt.Errorf("loadgen: per-request tracing is not supported on the sharded path (TraceEvery=%d, Shards=%d)", c.TraceEvery, c.Shards)
		}
	}
	return c.ClientHW.Validate()
}

// Generator drives one service from a set of client machines. Create
// one per worker of a scenario and call RunOnce per repetition. A
// generator is not safe for concurrent RunOnce calls: it runs on an
// engine set (Engines) whose simulation engines and request free lists
// successive runs reuse, which is what keeps steady-state request
// traffic allocation-free. A generator built by New owns its set; one
// built by NewLeased runs on a set leased from an envpool, which
// outlives the generator and serves the next scenario with the same
// engine shape.
type Generator struct {
	cfg      Config
	backend  services.Backend
	machines []*hw.Machine
	es       *Engines
}

// Engines is the simulation state a generator's runs execute on: one
// engine and request free list per run worker — one on the
// single-engine path, Config.Shards on the sharded path, where a
// sim.ShardSet drives them. Every run resets the engines, keeping their
// event free lists and wheel arrays and the recycled requests, so a set
// serves run after run, and generator after generator, without
// allocating them again. A set serves one generator at a time.
type Engines struct {
	shards    int
	lookahead time.Duration
	engines   []*sim.Engine
	pools     []services.RequestPool
	set       *sim.ShardSet // nil on the single-engine path
}

// EngineSpec returns the engine-set shape cfg runs on: the shard count
// and, on the sharded path, the lookahead (the link's minimum delay;
// zero with no shards). Configs with equal specs run on interchangeable
// sets — the key the envpool engine cache leases by.
func (c Config) EngineSpec() (shards int, lookahead time.Duration) {
	if c.Shards == 0 {
		return 0, 0
	}
	return c.Shards, c.Net.MinDelay()
}

// NewEngines builds an engine set of the given shape (Config.EngineSpec):
// one engine with no shards, or shards engines under a ShardSet.
func NewEngines(shards int, lookahead time.Duration) (*Engines, error) {
	es := &Engines{shards: shards, lookahead: lookahead, engines: make([]*sim.Engine, max(shards, 1))}
	for i := range es.engines {
		es.engines[i] = sim.NewEngine()
	}
	es.pools = make([]services.RequestPool, len(es.engines))
	if shards > 0 {
		set, err := sim.NewShardSet(es.engines, lookahead)
		if err != nil {
			return nil, err
		}
		es.set = set
	}
	return es, nil
}

// reset readies the set for a run.
func (es *Engines) reset() {
	for _, e := range es.engines {
		e.Reset()
	}
}

// MachineSpec returns the client-machine deployment shape New builds
// for cfg: the machine count and the physical cores per machine. Two
// configs with equal specs (and equal ClientHW) need interchangeable
// machine sets — the key the envpool machine cache leases by.
func (c Config) MachineSpec() (machines, coresPerMachine int) {
	coresNeeded := c.ThreadsPerMachine
	if !c.TimeSensitive {
		coresNeeded *= 2 // separate spin-pacing and blocking-receive cores
	}
	if coresNeeded < 10 {
		coresNeeded = 10 // testbed machines have a 10-core socket
	}
	return c.Machines, coresNeeded
}

// BuildMachines constructs the client machines New would build for cfg:
// each machine gets enough physical cores for its event-loop threads
// (plus receive threads in busy-wait mode), mirroring per-core pinning
// on the testbed.
func BuildMachines(cfg Config) ([]*hw.Machine, error) {
	count, cores := cfg.MachineSpec()
	machines := make([]*hw.Machine, 0, count)
	for i := 0; i < count; i++ {
		m, err := hw.NewMachine(fmt.Sprintf("client-%d", i), cores, cfg.ClientHW)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	return machines, nil
}

// New builds the generator, its client machines and its engine set.
func New(cfg Config, backend services.Backend) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	machines, err := BuildMachines(cfg)
	if err != nil {
		return nil, err
	}
	es, err := NewEngines(cfg.EngineSpec())
	if err != nil {
		return nil, err
	}
	return NewLeased(cfg, backend, machines, es)
}

// NewLeased is New on prebuilt client machines and a prebuilt engine
// set — e.g. both leased from an envpool, so that scenarios sharing a
// client configuration and an engine shape reuse them instead of
// rebuilding them. The machines must match cfg.MachineSpec() and the
// set cfg.EngineSpec(); every run resets both fully
// (hw.Machine.ResetRun, sim.Engine.Reset), so reuse never changes
// results.
func NewLeased(cfg Config, backend services.Backend, machines []*hw.Machine, es *Engines) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, fmt.Errorf("loadgen: backend is required")
	}
	count, cores := cfg.MachineSpec()
	if len(machines) != count {
		return nil, fmt.Errorf("loadgen: got %d machines, config needs %d", len(machines), count)
	}
	for _, m := range machines {
		if m.NumPhysicalCores() != cores {
			return nil, fmt.Errorf("loadgen: machine %s has %d cores, config needs %d", m.Name(), m.NumPhysicalCores(), cores)
		}
		if m.Config() != cfg.ClientHW {
			return nil, fmt.Errorf("loadgen: machine %s hardware config differs from ClientHW", m.Name())
		}
	}
	if es == nil {
		return nil, fmt.Errorf("loadgen: engine set is required")
	}
	if shards, lookahead := cfg.EngineSpec(); es.shards != shards || es.lookahead != lookahead {
		return nil, fmt.Errorf("loadgen: engine set has %d shards at lookahead %v, config needs %d at %v", es.shards, es.lookahead, shards, lookahead)
	}
	return &Generator{cfg: cfg, backend: backend, machines: machines, es: es}, nil
}

// Backend returns the service under test — e.g. for collecting
// backend-side statistics (cluster routing, queue depths) after RunOnce.
func (g *Generator) Backend() services.Backend { return g.backend }

// RequestTrace is one request's full timeline, in microseconds since the
// start of the run. It makes the paper's overhead chain visible per
// request: everything between ClientNICUs and MeasuredUs is client-side
// receive overhead (IRQ, C-state exit, context switch, DVFS-stretched
// parsing).
type RequestTrace struct {
	ID            uint64
	ScheduledUs   float64 // target send per the inter-arrival schedule
	SentUs        float64 // generator timestamp / wire departure
	ServerArrive  float64
	ServerDepart  float64
	ClientNICUs   float64 // response reaches the client NIC
	MeasuredUs    float64 // generator's response timestamp
	RecvWakeState string  // C-state the receive core exited ("C0" = was awake/polling)
	RecvWakeUs    float64 // wake + dispatch cost paid on the receive path
}

// SendLagUs returns the workload distortion for this request.
func (t RequestTrace) SendLagUs() float64 { return t.SentUs - t.ScheduledUs }

// ClientRxOverheadUs returns the receive-path share of the measurement —
// the µs the paper's Figure 2/3 gap is made of.
func (t RequestTrace) ClientRxOverheadUs() float64 { return t.MeasuredUs - t.ClientNICUs }

// String renders a one-request waterfall.
func (t RequestTrace) String() string {
	return fmt.Sprintf(
		"req %d: sched %.1f → sent %.1f (lag %.1f) → srv %.1f..%.1f → nic %.1f → measured %.1f (rx overhead %.1f, wake %s %.1fµs)",
		t.ID, t.ScheduledUs, t.SentUs, t.SendLagUs(), t.ServerArrive, t.ServerDepart,
		t.ClientNICUs, t.MeasuredUs, t.ClientRxOverheadUs(), t.RecvWakeState, t.RecvWakeUs)
}

// RunResult holds one repetition's measurements.
type RunResult struct {
	// Latency summarizes the post-warmup end-to-end latencies in
	// microseconds as the generator measured them (point of measurement
	// in-app), reduced by the run's recorder: bit-exact under
	// metrics.Exact, within the documented error bound under
	// metrics.Streaming.
	Latency stats.Summary
	// SendLag summarizes the per-request send distortion (actual −
	// scheduled transmit time) in microseconds: how far the generated
	// workload deviated from the target inter-arrival process.
	SendLag stats.Summary
	// LatenciesUs are the recorder's retained raw latencies: every
	// post-warmup sample (in arrival order) in exact mode, a
	// deterministic fixed-size reservoir subsample in streaming mode.
	// The reservoir preserves the distribution but not arrival order:
	// fine for Shapiro–Wilk-style tests, not for serial-dependence
	// diagnostics — use exact mode (or per-run sequences) for those.
	LatenciesUs []float64
	// SendLagUs is the retained send-lag series, with the same
	// exact/reservoir semantics as LatenciesUs.
	SendLagUs []float64
	// Sent and Received count requests issued and responses measured
	// (including warmup). Sent counts schedule-driven first attempts
	// only; retries and hedges are in Resilience.
	Sent, Received int
	// Resilience counts the run's client-side fault handling (all zero
	// on fault-free runs with resilience off).
	Resilience ResilienceStats
	// ClientWakes aggregates client-core C-state exits by state.
	ClientWakes map[string]int
	// ServerWakes aggregates server-core C-state exits by state.
	ServerWakes map[string]int
	// ClientEnergyProxy is the power-weighted residency integral of the
	// client machines (LP saves energy — the trade-off of §VI).
	ClientEnergyProxy float64
	// Traces holds sampled per-request timelines when Config.TraceEvery
	// is set.
	Traces []RequestTrace
}

// thread is one generator event-loop thread (plus an optional separate
// receive core in busy-wait mode).
type thread struct {
	id       int
	pace     *hw.Core
	recv     *hw.Core // == pace for block-wait designs
	arrivals workload.Interarrival
	payloads PayloadSource
	kvSource KVPayloadSource // non-nil when payloads supports the inline KV form
	nextSend sim.Time
	c2s, s2c *netmodel.Link
	connBase int // first connection id owned by this thread
	connSeq  int // round-robin cursor over the thread's connections
	conns    int

	// classes is the thread's per-class pacing state on the mix path
	// (Config.Classes / Phases); nil on the legacy single-process path,
	// where arrivals/nextSend above carry the schedule.
	classes []classState

	// res is the thread's resilience stream (backoff jitter draws), split
	// at setup only when resilience is on so the fault-free path's draw
	// sequence stays untouched.
	res *rng.Stream
}

// run is one worker of a repetition: the whole repetition on the
// single-engine path, one shard of it on the sharded path (sr set). A
// worker owns the threads of its machines, its engine, request pool and
// ID space; every worker of a repetition shares its one recorder, which
// sharded workers feed through the epoch merge instead of directly.
type run struct {
	g        *Generator
	engine   *sim.Engine
	threads  []*thread // all threads, shared by every worker (disjoint ownership)
	rec      *recorder
	duration sim.Time
	nextID   uint64
	sent     int
	// phases is the compiled phase program (nil without one).
	phases *phaseSchedule

	// res is the run's resolved resilience config (nil when disabled —
	// the timeout/retry/hedge stages are wired only when set), rp the
	// backend's route previewer for hedge aiming (nil without one), and
	// fstats the run's resilience counters (per shard on the sharded
	// path; plain sums, so they merge order-independently).
	res    *ResilienceConfig
	rp     routePreviewer
	fstats ResilienceStats

	// pool is the worker's request free list (&Engines.pools[shard]).
	pool *services.RequestPool
	// sr/shard identify the sharded run this is one shard of (sr nil on
	// the single-engine path, where shard is 0).
	sr    *shardedRun
	shard int
	// buf is the shard's time-ordered measurement buffer, merged into
	// the global recorder at epoch barriers (sharded path only).
	buf []shardRecord
}

// recorder routes post-warmup measurements into the run's metrics
// recorders (exact or streaming, per Config.Recorders).
type recorder struct {
	warmupUntil sim.Time
	lat, lag    metrics.Recorder
	received    int
	traces      []RequestTrace
}

func (r *recorder) record(measuredAt sim.Time, latency, lag time.Duration) {
	r.received++
	if measuredAt < r.warmupUntil {
		return
	}
	r.lat.Record(float64(latency) / 1e3)
	r.lag.Record(float64(lag) / 1e3)
}

// result assembles the recorder's reductions into a RunResult.
func (r *recorder) result() RunResult {
	return RunResult{
		Latency:     r.lat.Summary(),
		SendLag:     r.lag.Summary(),
		LatenciesUs: r.lat.Samples(),
		SendLagUs:   r.lag.Samples(),
		Received:    r.received,
		Traces:      r.traces,
	}
}

// RunOnce executes one independent repetition of the given duration and
// returns its measurements. The environment — client and server machines,
// service state, RNG streams — is reset first, matching the paper's
// methodology of resetting between runs so samples are iid (§III).
//
// The single-engine and sharded paths share every step that draws from
// stream, in one order. They fork only where the backend is reset onto
// the engines, where the engines run, and at the cross-shard hand-offs
// inside the event handlers (see sharded.go).
func (g *Generator) RunOnce(stream *rng.Stream, duration time.Duration) (RunResult, error) {
	if duration <= 0 {
		return RunResult{}, fmt.Errorf("loadgen: non-positive run duration %v", duration)
	}
	g.es.reset()
	sr, err := g.newShardedRun() // nil on the single-engine path
	if err != nil {
		return RunResult{}, err
	}
	resetMachines(stream, g.machines, g.backend)
	if err := g.resetBackend(sr, stream); err != nil {
		return RunResult{}, err
	}
	end := sim.Time(0).Add(duration)
	g.backend.StartRun(end)

	workers := g.newWorkers(sr, end)
	if err := g.setupThreads(workers, stream, end); err != nil {
		return RunResult{}, err
	}

	// The recorder factory runs after the environment has drawn all its
	// streams, so an exact run's simulation is byte-identical to a
	// streaming run's — only the measurement reduction differs.
	rec := workers[0].rec
	if rec.lat, rec.lag, err = g.cfg.recorders()(stream, g.cfg.expectedSamples(duration)); err != nil {
		return RunResult{}, err
	}

	if sr == nil {
		g.es.engines[0].RunUntil(end)
	} else {
		g.es.set.Run(end, sr.mergeRecords)
	}

	res := rec.result()
	for _, w := range workers {
		res.Sent += w.sent
		res.Resilience.add(w.fstats)
	}
	res.fillMachineStats(g.machines, g.backend, duration)
	return res, nil
}

// newWorkers builds one worker per engine. All of them share the run's
// recorder and its read-only configuration: the phase program and the
// resolved resilience settings.
func (g *Generator) newWorkers(sr *shardedRun, end sim.Time) []*run {
	rec := &recorder{warmupUntil: sim.Time(0).Add(g.cfg.Warmup)}
	phases := newPhaseSchedule(g.cfg.Phases, g.cfg.PhasesRepeat)
	var res *ResilienceConfig
	var rp routePreviewer
	if g.cfg.Resilience.Enabled() {
		rc := g.cfg.Resilience.resolved()
		res = &rc
		rp, _ = g.backend.(routePreviewer)
	}
	workers := make([]*run, len(g.es.engines))
	for s := range workers {
		workers[s] = &run{
			g:        g,
			engine:   g.es.engines[s],
			rec:      rec,
			duration: end,
			phases:   phases,
			res:      res,
			rp:       rp,
			pool:     &g.es.pools[s],
			sr:       sr,
			shard:    s,
			// Disjoint per-shard ID spaces keep request IDs unique without
			// cross-shard coordination (IDs only feed diagnostics).
			nextID: uint64(s) << 48,
		}
	}
	if sr != nil {
		sr.workers = workers
	}
	return workers
}

// setupThreads builds every generator thread on the worker that owns its
// machine (client machine m runs on worker m mod len(workers)) and arms
// its first send. Per thread it draws from stream in one fixed order:
// arrivals (or the per-class streams), payloads, the c2s/s2c link pair,
// the resilience stream, then the initial phase. The order is the same at
// every shard count, which is what keeps sharded output byte-identical.
func (g *Generator) setupThreads(workers []*run, stream *rng.Stream, end sim.Time) error {
	lsched := faults.CompileLink(g.cfg.LinkFaults, end)
	var mix []ClassConfig
	if g.cfg.mixed() {
		mix = g.cfg.mixClasses()
	}
	tpm := g.cfg.ThreadsPerMachine
	nThreads := g.cfg.Machines * tpm
	perThreadRate := g.cfg.RateQPS / float64(nThreads)
	threads := make([]*thread, 0, nThreads)
	for i := 0; i < nThreads; i++ {
		w := workers[(i/tpm)%len(workers)]
		machine := g.machines[i/tpm]
		slot := i % tpm
		th := &thread{id: i, pace: machine.Core(slot), connBase: i * g.cfg.ConnsPerThread, conns: g.cfg.ConnsPerThread}
		if g.cfg.TimeSensitive {
			th.recv = th.pace
		} else {
			th.recv = machine.Core(tpm + slot)
		}
		if mix != nil {
			// Mix path: one arrival source + draw stream per class, in
			// class order, before the payload and link streams.
			if err := w.setupClasses(th, mix, perThreadRate, stream); err != nil {
				return err
			}
		} else {
			arr, err := workload.NewExponentialArrivals(perThreadRate, stream.Split())
			if err != nil {
				return err
			}
			th.arrivals = arr
		}
		th.payloads = g.cfg.Payloads(stream.Split())
		th.kvSource, _ = th.payloads.(KVPayloadSource)
		linkStream := stream.Split()
		var err error
		if th.c2s, err = netmodel.New(g.cfg.Net, linkStream); err != nil {
			return err
		}
		if th.s2c, err = netmodel.New(g.cfg.Net, linkStream.Split()); err != nil {
			return err
		}
		if lsched != nil {
			th.c2s.SetDegrade(lsched)
			th.s2c.SetDegrade(lsched)
		}
		if w.res != nil {
			th.res = stream.Split()
		}
		threads = append(threads, th)

		if !g.cfg.TimeSensitive {
			// The pacing core spins from the start of the run and never
			// sleeps: time-insensitive busy-wait pacing.
			th.pace.Wake(0)
		}
		// A random initial phase per thread (per class on the mix path)
		// avoids synchronized starts.
		if mix != nil {
			for ci := range th.classes {
				cs := &th.classes[ci]
				cs.nextSend = sim.Time(0).Add(time.Duration(stream.Float64() * float64(time.Second) / (perThreadRate * cs.cfg.Fraction)))
				w.scheduleClassSend(th, ci)
			}
		} else {
			th.nextSend = sim.Time(0).Add(time.Duration(stream.Float64() * float64(time.Second) / perThreadRate))
			w.scheduleSend(th)
		}
	}
	// Every worker indexes the full thread table (responses are looked up
	// by req.Thread) but only fires events for its own machines' threads.
	for _, w := range workers {
		w.threads = threads
	}
	return nil
}

// OnEvent implements sim.EventSink: the run is one state machine over the
// client-side event kinds, with the pooled request (or its thread) as the
// event argument — no per-request closures.
func (r *run) OnEvent(now sim.Time, arg sim.EventArg) {
	switch arg.U64 & evKindMask {
	case evSendTimer:
		// The class index of the mix path rides above the kind bits
		// (0 on the legacy path).
		r.onSendTimer(arg.Ptr.(*thread), int(arg.U64>>evKindBits), now)
	case evArrive:
		req := arg.Ptr.(*services.Request)
		if r.sr != nil && r.sr.cluster != nil {
			// Sharded cluster: the replica was picked at send time (so the
			// sender knew the destination shard); deliver without re-routing.
			r.sr.cluster.ArriveRouted(req, now)
		} else {
			r.g.backend.Arrive(req, now)
		}
	case evRespCross:
		// Sharded path only: a completion handed off to this (the owning
		// thread's) shard at departure + lookahead. Drawing the s2c jitter
		// here — instead of at the completion, which may run on another
		// shard — keeps each thread's s2c stream consumed in departure
		// order, exactly as the single-engine run consumes it.
		req := arg.Ptr.(*services.Request)
		departed := sim.Time(0).Add(time.Duration(arg.U64 >> evKindBits))
		th := r.threads[req.Thread]
		th.s2c.DeliverFrom(r.engine, departed, departed, req.ResponseBytes, r, sim.EventArg{Ptr: req, U64: evReceive})
	case evReceive:
		req := arg.Ptr.(*services.Request)
		r.onReceive(r.threads[req.Thread], req, now)
	case evDrainPace:
		th := arg.Ptr.(*thread)
		r.drainNow(th, th.pace, now)
	case evDrainRecv:
		th := arg.Ptr.(*thread)
		r.drainNow(th, th.recv, now)
	case evTimeout:
		r.onTimeout(arg.Ptr.(*services.Request), now)
	case evRetry:
		r.resend(arg.Ptr.(*services.Request), now)
	case evHedge:
		r.onHedge(arg.Ptr.(*services.Request), now)
	}
}

// OnComplete implements services.CompletionSink: the response leaves the
// server and crosses the return link to the owning thread's NIC. On the
// sharded path this executes on the replica's shard (the request's sink
// is the replica-shard run), and the response is handed off to the
// owning thread's shard instead of delivered directly.
func (r *run) OnComplete(req *services.Request, departed sim.Time) {
	if r.sr != nil {
		r.sr.completeSharded(r, req, departed)
		return
	}
	th := r.threads[req.Thread]
	th.s2c.Deliver(r.engine, departed, req.ResponseBytes, r, sim.EventArg{Ptr: req, U64: evReceive})
}

// scheduleSend arms the next send timer for th.
func (r *run) scheduleSend(th *thread) {
	if th.nextSend > r.duration {
		return
	}
	r.engine.AtSink(th.nextSend, r, sim.EventArg{Ptr: th, U64: evSendTimer})
}

// onSendTimer fires when the inter-arrival schedule says the next request
// is due. On a block-wait generator the thread may have to wake from a
// C-state and ramp its frequency first, shifting the actual transmit time —
// the workload distortion of §II. classIdx selects the mix class whose
// timer fired; it is 0 (and ignored) on the legacy path.
func (r *run) onSendTimer(th *thread, classIdx int, now sim.Time) {
	conn := th.connBase + th.connSeq%th.conns
	th.connSeq++
	req := r.pool.Get()
	reqBytes := th.fillPayload(req)
	var cs *classState
	if th.classes != nil {
		cs = &th.classes[classIdx]
		if cs.cfg.Size.enabled() {
			reqBytes = cs.cfg.Size.draw(cs.stream)
		}
	}
	req.ID = r.nextID
	req.Thread = th.id
	req.Conn = conn
	req.Scheduled = now
	r.nextID++
	r.sent++

	start := clientLoopStart(th.pace, now)
	sent := th.pace.Execute(start, sendWork)
	req.SentAt = sent
	req.FirstSent = sent
	r.dispatch(th, req, sent, reqBytes)

	// Open loop: the next send is scheduled from the target schedule, not
	// from this send's completion.
	if cs == nil {
		th.nextSend = now.Add(th.arrivals.Next())
		r.scheduleSend(th)
	} else {
		gap := cs.arrivals.Next()
		if r.phases != nil {
			gap = r.phases.scaleGap(gap, now)
		}
		if cs.cfg.Think.enabled() {
			gap += cs.cfg.Think.draw(cs.stream)
		}
		cs.nextSend = now.Add(gap)
		r.scheduleClassSend(th, classIdx)
	}
	r.drainCheck(th, th.pace, sent)
}

// onReceive fires when a response reaches the client NIC. With the
// default in-app measurement point, the measured latency includes IRQ
// delivery, any C-state exit and context switch, and the (possibly
// DVFS-stretched) response processing — everything between the wire and
// the generator's timestamp. Kernel-socket and NIC timestamping stop the
// clock earlier; the processing still happens (the generator must parse
// the response either way), it just no longer pollutes the measurement.
func (r *run) onReceive(th *thread, req *services.Request, now sim.Time) {
	if req.Abandoned {
		// A response for an attempt the client already gave up on — timed
		// out, or its hedge peer settled the pair first. The stale
		// response is discarded without waking the generator; the arrival
		// only returns the request to the pool (the recycle that the
		// timer-side bookkeeping must never perform itself).
		if req.Outcome == services.OutcomeTimedOut {
			r.fstats.LateDrops++
		}
		r.pool.Put(req)
		return
	}
	if r.res != nil {
		r.settle(req)
	}
	if req.Outcome == services.OutcomeFailed {
		// An error response: the replica crashed with the request in
		// flight, or no healthy replica existed to route to. Not a served
		// latency — count it, retry if the budget allows, and recycle
		// (this response IS the attempt's arrival; nothing else holds it).
		r.fstats.Failed++
		if r.res != nil {
			r.giveUpOrRetry(req, now)
		} else {
			r.fstats.Exhausted++
		}
		r.pool.Put(req)
		return
	}
	machine := r.g.machines[th.id/r.g.cfg.ThreadsPerMachine]
	wakeState, eligible, start, done := clientReceive(machine, th.recv, now)
	var stamped sim.Time
	switch r.g.cfg.Point {
	case core.NICHardware:
		stamped = now
	case core.KernelSocket:
		stamped = eligible
	default: // core.InApp
		stamped = done
	}
	// Latency is measured from the first attempt's departure (== SentAt
	// without retries), so a retried request's measurement includes the
	// timeouts and backoffs the client actually sat through; send lag
	// likewise reflects the first send against its schedule.
	lat, lag := stamped.Sub(req.FirstSent), req.FirstSent.Sub(req.Scheduled)
	r.fstats.Succeeded++
	if req.Hedged {
		r.fstats.HedgeWins++
	}
	if r.sr != nil {
		// Sharded: buffer under the receive event's instant (the global
		// merge key — see shardedRun.mergeRecords) instead of recording
		// directly; the epoch merge replays buffers in single-engine order.
		r.buf = append(r.buf, shardRecord{at: now, done: done, lat: lat, lag: lag})
	} else {
		r.rec.record(done, lat, lag)
	}
	if n := r.g.cfg.TraceEvery; n > 0 && req.ID%uint64(n) == 0 && done >= r.rec.warmupUntil {
		r.rec.traces = append(r.rec.traces, RequestTrace{
			ID:            req.ID,
			ScheduledUs:   req.Scheduled.Microseconds(),
			SentUs:        req.SentAt.Microseconds(),
			ServerArrive:  req.ServerArrive.Microseconds(),
			ServerDepart:  req.ServerDepart.Microseconds(),
			ClientNICUs:   now.Microseconds(),
			MeasuredUs:    done.Microseconds(),
			RecvWakeState: hw.SkylakeCStates[wakeState].Name,
			RecvWakeUs:    float64(start.Sub(eligible)) / 1e3,
		})
	}
	r.drainCheck(th, th.recv, done)
	// The request is fully measured: recycle it for the next send. On the
	// sharded path it returns to the pool of the shard that issued it —
	// the thread's shard, which is exactly where evReceive fires.
	r.pool.Put(req)
}

// drainCheck puts the event-loop core to sleep once it runs out of work.
// Block-wait threads sleep with the next send timer as the governor's
// deadline hint; dedicated receive cores sleep with no hint. Busy-wait
// pacing cores never sleep.
func (r *run) drainCheck(th *thread, core *hw.Core, at sim.Time) {
	if !r.g.cfg.TimeSensitive && core == th.pace {
		return // busy-wait pacing core spins
	}
	kind := evDrainRecv
	if core == th.pace {
		kind = evDrainPace
	}
	r.engine.AtSink(at, r, sim.EventArg{Ptr: th, U64: kind})
}

// drainNow is the drain event's body: sleep the core if it is still out
// of work when the event fires.
func (r *run) drainNow(th *thread, core *hw.Core, now sim.Time) {
	if core.Idle() || core.BusyUntil() > now {
		return
	}
	var hint time.Duration
	if next := th.earliestNextSend(); core == th.pace && next > now {
		hint = next.Sub(now)
	}
	core.Sleep(now, hint)
}
