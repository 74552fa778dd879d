package loadgen

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
)

// ClosedLoopConfig describes a closed-loop workload generator (§II): a
// finite population of blocking clients, each holding one outstanding
// request and optionally thinking between response and next request.
// Because the next send depends on when the previous response arrived,
// client-side timing inaccuracy compounds: a late-measured response delays
// the next request, shifting the whole sequence (the paper: "any timing
// inaccuracy can further impact the time when a successive request is
// sent").
type ClosedLoopConfig struct {
	Machines          int
	ThreadsPerMachine int
	// ClientsPerThread is the number of blocking clients a thread
	// multiplexes; total population = Machines × Threads × Clients.
	ClientsPerThread int
	// ThinkTime is the mean exponential pause between receiving a
	// response and issuing the next request (0 = immediate re-issue).
	ThinkTime time.Duration
	ClientHW  hw.Config
	Payloads  PayloadFactory
	Warmup    time.Duration
	Net       netmodel.Config
	// Recorders builds each run's measurement recorders; nil selects
	// metrics.ExactFactory (see Config.Recorders).
	Recorders metrics.Factory
}

// recorders returns the configured factory, defaulting to exact.
func (c ClosedLoopConfig) recorders() metrics.Factory {
	if c.Recorders != nil {
		return c.Recorders
	}
	return metrics.ExactFactory
}

// Validate reports configuration errors.
func (c ClosedLoopConfig) Validate() error {
	if c.Machines < 1 || c.ThreadsPerMachine < 1 || c.ClientsPerThread < 1 {
		return fmt.Errorf("loadgen: closed loop needs ≥1 machine/thread/client, got %d/%d/%d",
			c.Machines, c.ThreadsPerMachine, c.ClientsPerThread)
	}
	if c.ThinkTime < 0 {
		return fmt.Errorf("loadgen: negative think time %v", c.ThinkTime)
	}
	if c.Payloads == nil {
		return fmt.Errorf("loadgen: payload factory is required")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("loadgen: negative warmup %v", c.Warmup)
	}
	return c.ClientHW.Validate()
}

// ClosedLoopGenerator drives a service with a fixed client population.
// Like Generator, it owns a one-engine set (Engines) that successive
// RunOnce calls reuse; it is not safe for concurrent runs.
type ClosedLoopGenerator struct {
	cfg      ClosedLoopConfig
	backend  services.Backend
	machines []*hw.Machine
	es       *Engines
}

// NewClosedLoop builds the generator.
func NewClosedLoop(cfg ClosedLoopConfig, backend services.Backend) (*ClosedLoopGenerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, fmt.Errorf("loadgen: backend is required")
	}
	es, err := NewEngines(0, 0)
	if err != nil {
		return nil, err
	}
	g := &ClosedLoopGenerator{cfg: cfg, backend: backend, es: es}
	cores := cfg.ThreadsPerMachine
	if cores < 10 {
		cores = 10
	}
	for i := 0; i < cfg.Machines; i++ {
		m, err := hw.NewMachine(fmt.Sprintf("closed-client-%d", i), cores, cfg.ClientHW)
		if err != nil {
			return nil, err
		}
		g.machines = append(g.machines, m)
	}
	return g, nil
}

// Population returns the total number of blocking clients.
func (g *ClosedLoopGenerator) Population() int {
	return g.cfg.Machines * g.cfg.ThreadsPerMachine * g.cfg.ClientsPerThread
}

// ClosedLoopResult extends RunResult with throughput, the closed-loop
// system's dependent variable (rate is not controlled, it emerges from
// population, think time and latency via Little's law).
type ClosedLoopResult struct {
	RunResult
	// ThroughputQPS is the measured completion rate over the measurement
	// window.
	ThroughputQPS float64
}

// RunOnce executes one repetition of the given duration.
func (g *ClosedLoopGenerator) RunOnce(stream *rng.Stream, duration time.Duration) (ClosedLoopResult, error) {
	if duration <= 0 {
		return ClosedLoopResult{}, fmt.Errorf("loadgen: non-positive run duration %v", duration)
	}
	g.es.reset()
	engine := g.es.engines[0]
	resetMachines(stream, g.machines, g.backend)
	g.backend.ResetRun(engine, stream.Split())
	end := sim.Time(0).Add(duration)
	g.backend.StartRun(end)

	r := &closedRun{
		g:      g,
		engine: engine,
		pool:   &g.es.pools[0],
		end:    end,
		rec:    &recorder{warmupUntil: sim.Time(0).Add(g.cfg.Warmup)},
		think:  stream.Split(),
	}

	nThreads := g.cfg.Machines * g.cfg.ThreadsPerMachine
	for ti := 0; ti < nThreads; ti++ {
		machine := g.machines[ti/g.cfg.ThreadsPerMachine]
		th := &thread{
			id:       ti,
			pace:     machine.Core(ti % g.cfg.ThreadsPerMachine),
			payloads: g.cfg.Payloads(stream.Split()),
			connBase: ti * g.cfg.ClientsPerThread,
			conns:    g.cfg.ClientsPerThread,
		}
		th.kvSource, _ = th.payloads.(KVPayloadSource)
		th.recv = th.pace
		linkStream := stream.Split()
		var err error
		th.c2s, err = netmodel.New(g.cfg.Net, linkStream)
		if err != nil {
			return ClosedLoopResult{}, err
		}
		th.s2c, err = netmodel.New(g.cfg.Net, linkStream.Split())
		if err != nil {
			return ClosedLoopResult{}, err
		}
		r.threads = append(r.threads, th)
		// Stagger client start-up like a ramping connection pool.
		for c := 0; c < g.cfg.ClientsPerThread; c++ {
			conn := th.connBase + c
			at := sim.Time(0).Add(time.Duration(stream.Float64() * float64(time.Millisecond)))
			engine.AtSink(at, r, sim.EventArg{Ptr: th, U64: packIssue(conn)})
		}
	}

	// As in Generator.RunOnce, recorders come last so the environment's
	// stream draws are independent of the measurement mode. A closed
	// loop's sample count follows the service's speed, so none is
	// expected up front.
	var err error
	if r.rec.lat, r.rec.lag, err = g.cfg.recorders()(stream, 0); err != nil {
		return ClosedLoopResult{}, err
	}

	engine.RunUntil(end)

	rr := r.rec.result()
	rr.Sent = r.sent
	rr.fillMachineStats(g.machines, g.backend, duration)
	return ClosedLoopResult{
		RunResult:     rr,
		ThroughputQPS: float64(r.rec.lat.N()) / (duration - g.cfg.Warmup).Seconds(),
	}, nil
}

type closedRun struct {
	g       *ClosedLoopGenerator
	engine  *sim.Engine
	pool    *services.RequestPool
	threads []*thread
	rec     *recorder
	end     sim.Time
	think   *rng.Stream
	nextID  uint64
	sent    int
}

// packIssue packs the connection id of a closed-loop issue event above
// the kind bits of the typed event's scalar argument.
func packIssue(conn int) uint64 { return evIssue | uint64(conn)<<evKindBits }

// OnEvent implements sim.EventSink: the closed-loop run's state machine
// over pooled requests — issue, server arrival, NIC receive, core drain.
func (r *closedRun) OnEvent(now sim.Time, arg sim.EventArg) {
	switch arg.U64 & evKindMask {
	case evIssue:
		r.issue(arg.Ptr.(*thread), int(arg.U64>>evKindBits), now)
	case evArrive:
		r.g.backend.Arrive(arg.Ptr.(*services.Request), now)
	case evReceive:
		req := arg.Ptr.(*services.Request)
		r.receive(r.threads[req.Thread], req, now)
	case evDrainPace:
		th := arg.Ptr.(*thread)
		if th.pace.Idle() || th.pace.BusyUntil() > now {
			return
		}
		// A closed-loop thread has no send timer: no deadline hint.
		th.pace.Sleep(now, 0)
	}
}

// OnComplete implements services.CompletionSink: the response leaves the
// server and crosses the return link.
func (r *closedRun) OnComplete(req *services.Request, departed sim.Time) {
	th := r.threads[req.Thread]
	th.s2c.Deliver(r.engine, departed, req.ResponseBytes, r, sim.EventArg{Ptr: req, U64: evReceive})
}

// issue sends one request for a blocking client and schedules the next on
// its completion (+ think time).
func (r *closedRun) issue(th *thread, conn int, now sim.Time) {
	if now > r.end {
		return
	}
	req := r.pool.Get()
	reqBytes := th.fillPayload(req)
	req.ID = r.nextID
	req.Thread = th.id
	req.Conn = conn
	req.Scheduled = now
	req.SetCompletionSink(r)
	r.nextID++
	r.sent++

	start := clientLoopStart(th.pace, now)
	sent := th.pace.Execute(start, sendWork)
	req.SentAt = sent

	th.c2s.Deliver(r.engine, sent, reqBytes, r, sim.EventArg{Ptr: req, U64: evArrive})
	r.drainCheck(th, sent)
}

// receive measures the response, thinks, then issues the next request —
// the closed-loop dependency the paper describes: measurement delay feeds
// directly into the next send time.
func (r *closedRun) receive(th *thread, req *services.Request, now sim.Time) {
	machine := r.g.machines[th.id/r.g.cfg.ThreadsPerMachine]
	_, _, _, done := clientReceive(machine, th.recv, now)
	r.rec.record(done, done.Sub(req.SentAt), 0)
	r.drainCheck(th, done)

	conn := req.Conn
	r.pool.Put(req)
	next := done
	if r.g.cfg.ThinkTime > 0 {
		next = next.Add(time.Duration(r.think.Exp(1) * float64(r.g.cfg.ThinkTime)))
	}
	if next <= r.end {
		r.engine.AtSink(next, r, sim.EventArg{Ptr: th, U64: packIssue(conn)})
	}
}

// drainCheck sleeps the event-loop core once idle (via the typed drain
// event shared with the open-loop generator).
func (r *closedRun) drainCheck(th *thread, at sim.Time) {
	r.engine.AtSink(at, r, sim.EventArg{Ptr: th, U64: evDrainPace})
}

// ExpectedThroughput predicts the closed-loop completion rate from
// Little's law: N clients / (latency + think time).
func ExpectedThroughput(population int, meanLatency, thinkTime time.Duration) float64 {
	cycle := meanLatency + thinkTime
	if cycle <= 0 {
		return 0
	}
	return float64(population) / cycle.Seconds()
}

// MeanLatencyUs is a convenience over a result's latency summary.
func (r ClosedLoopResult) MeanLatencyUs() float64 { return r.Latency.Mean }
