// Package cluster models a replicated backend fleet behind a load
// balancer — the paper's single client/server pair extended toward the
// "millions of users" regime of the ROADMAP north-star. A ReplicaSet
// holds N replicas of a backend (per-replica queues, stores and
// machines; Memcached replicas fork the shared preload snapshot, so N
// replicas cost near nothing extra), a Router policy picks the replica
// per request, and an optional Autoscaler adds or removes replicas from
// signals sampled on the virtual clock.
//
// Determinism is preserved end to end: the ReplicaSet consumes its run
// stream so that replica 0 sees exactly the draws an unwrapped backend
// would (a one-replica cluster is byte-identical to the legacy
// single-backend path), replicas 1..N−1 and the router/autoscaler split
// their own streams afterwards, and all routing state is run-scoped.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
)

// ReplicaSet is a replicated backend: it implements services.Backend by
// routing each arriving request to one of its replicas and observing the
// completion (via the request's completion hook) to settle per-replica
// outstanding counts. All replicas are built up front; the autoscaler
// only changes how many are in rotation.
type ReplicaSet struct {
	replicas []services.Backend
	machines []*hw.Machine
	router   Router
	initial  int // active count at the start of every run
	active   int

	autoCfg *AutoscalerConfig
	auto    *autoscaler

	engine *sim.Engine
	end    sim.Time

	// Fault-injection state. plan is installed at build time; sched is
	// the per-run compiled schedule (nil on the fault-free path — every
	// hot-path check is a single nil compare). faultStream feeds
	// randomly drawn windows, split off the run stream at reset;
	// engines[i] is replica i's engine (all the same engine on the
	// single-engine path), where its crash/restart events fire.
	plan        *faults.Plan
	sched       *faults.Schedule
	faultStream *rng.Stream
	engines     []*sim.Engine

	// Run-scoped accounting, SoA: parallel flat arrays indexed by
	// replica id, so routing picks and autoscaler scans touch contiguous
	// words instead of N pointer-chased replica structs. outstanding is
	// settled by the completion hook; routed is the router's
	// offered-load split (unlike the tiers' Completed counters it is not
	// polluted by background hiccups).
	outstanding []int
	routed      []uint64
	// occ caches each replica's OccupancyProvider so the autoscaler tick
	// neither type-asserts nor allocates (TierStats builds a slice per
	// call); nil for backends without the interface.
	occ      []services.OccupancyProvider
	residSum time.Duration // server residence since the last tick
	residCnt int
	scaleLog []ScaleEvent
}

// New builds a ReplicaSet over the given replicas. replicas[0] is the
// primary (its configuration accessors stand in for the set); initial is
// the active count at the start of each run. With an autoscaler config,
// len(replicas) must equal cfg.Max and initial must lie within its
// bounds.
func New(replicas []services.Backend, initial int, router Router, auto *AutoscalerConfig) (*ReplicaSet, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: need ≥1 replica")
	}
	if router == nil {
		return nil, fmt.Errorf("cluster: router is required")
	}
	if initial < 1 || initial > len(replicas) {
		return nil, fmt.Errorf("cluster: initial active count %d outside [1, %d]", initial, len(replicas))
	}
	rs := &ReplicaSet{
		replicas:    replicas,
		router:      router,
		initial:     initial,
		active:      initial,
		outstanding: make([]int, len(replicas)),
		routed:      make([]uint64, len(replicas)),
		occ:         make([]services.OccupancyProvider, len(replicas)),
	}
	for i, b := range replicas {
		if prov, ok := b.(services.OccupancyProvider); ok {
			rs.occ[i] = prov
		}
	}
	if auto != nil {
		if err := auto.Validate(); err != nil {
			return nil, err
		}
		if auto.Max != len(replicas) {
			return nil, fmt.Errorf("cluster: autoscaler max %d must equal replica capacity %d", auto.Max, len(replicas))
		}
		if initial < auto.Min || initial > auto.Max {
			return nil, fmt.Errorf("cluster: initial active count %d outside autoscaler bounds [%d, %d]", initial, auto.Min, auto.Max)
		}
		cfg := *auto
		rs.autoCfg = &cfg
		rs.auto = newAutoscaler(cfg, len(replicas))
	}
	for _, b := range replicas {
		rs.machines = append(rs.machines, b.Machines()...)
	}
	return rs, nil
}

// InstallFaults attaches a fault plan to the set. Call once at build
// time, before the first run; a nil or empty plan leaves the set on the
// fault-free path. The plan must already be validated against the
// replica capacity (faults.Plan.Validate).
func (rs *ReplicaSet) InstallFaults(plan *faults.Plan) {
	if plan.Empty() {
		rs.plan = nil
		return
	}
	rs.plan = plan
	if rs.engines == nil {
		rs.engines = make([]*sim.Engine, len(rs.replicas))
	}
}

// Primary returns replica 0 — the instance whose workload accessors
// (ETC config, query datasets) describe the whole set, since replicas
// are built identically.
func (rs *ReplicaSet) Primary() services.Backend { return rs.replicas[0] }

// Capacity returns the number of built replicas.
func (rs *ReplicaSet) Capacity() int { return len(rs.replicas) }

// Active returns the replica count currently in rotation.
func (rs *ReplicaSet) Active() int { return rs.active }

// Router returns the routing policy.
func (rs *ReplicaSet) Router() Router { return rs.router }

// Name implements services.Backend.
func (rs *ReplicaSet) Name() string {
	return fmt.Sprintf("%s×%d", rs.replicas[0].Name(), len(rs.replicas))
}

// Machines implements services.Backend: the union over all replicas,
// primary first, so a one-replica set resets exactly the machines the
// unwrapped backend would.
func (rs *ReplicaSet) Machines() []*hw.Machine { return rs.machines }

// MeanServiceTime implements services.Backend (replicas are identical).
func (rs *ReplicaSet) MeanServiceTime() float64 { return rs.replicas[0].MeanServiceTime() }

// ResetRun implements services.Backend. Replica 0 consumes the stream
// exactly as an unwrapped backend would — the single-replica
// byte-identity guarantee — and every other consumer splits afterwards.
func (rs *ReplicaSet) ResetRun(engine *sim.Engine, stream *rng.Stream) {
	rs.engine = engine
	rs.replicas[0].ResetRun(engine, stream)
	for _, b := range rs.replicas[1:] {
		b.ResetRun(engine, stream.Split())
	}
	rs.router.Reset(stream.Split())
	rs.active = rs.initial
	rs.router.Resize(rs.active)
	if rs.auto != nil {
		rs.auto.reset()
	}
	for i := range rs.outstanding {
		rs.outstanding[i] = 0
		rs.routed[i] = 0
	}
	rs.residSum, rs.residCnt = 0, 0
	rs.scaleLog = rs.scaleLog[:0]
	if rs.plan != nil {
		for i := range rs.engines {
			rs.engines[i] = engine
		}
		rs.faultStream = stream.Split()
		rs.sched = nil
	}
}

// StartRun implements services.Backend: background activity starts on
// every replica (standbys stay warm), the fault schedule is compiled and
// armed, and the autoscaler's first tick is scheduled.
func (rs *ReplicaSet) StartRun(end sim.Time) {
	rs.end = end
	for _, b := range rs.replicas {
		b.StartRun(end)
	}
	if rs.plan != nil {
		rs.startFaults(end)
	}
	if rs.auto != nil {
		rs.scheduleTick(sim.Time(0).Add(rs.autoCfg.Interval))
	}
}

// startFaults compiles the plan against the run horizon — randomly
// drawn windows consume the reset-time fault stream — then installs the
// per-replica straggler schedules and arms crash/restart events on each
// crashed replica's own engine. Scheduling happens at setup (origin 0),
// so a crash orders identically against same-instant traffic on the
// single-engine and sharded paths.
func (rs *ReplicaSet) startFaults(end sim.Time) {
	rs.sched = rs.plan.Compile(len(rs.replicas), end, rs.faultStream)
	for i, b := range rs.replicas {
		if d, ok := b.(services.Degrader); ok {
			d.SetDegrade(rs.sched.Degrade(i))
		}
		engine := rs.engines[i]
		rep := uint64(i)
		rs.sched.EachCrash(i, func(start, crashEnd sim.Time) {
			engine.AtSink(start, rs, sim.EventArg{U64: rsEvCrash | rep<<rsEvKindBits})
			if crashEnd < end {
				engine.AtSink(crashEnd, rs, sim.EventArg{U64: rsEvRestart | rep<<rsEvKindBits})
			}
		})
	}
}

// ShardPartitions implements the loadgen sharded-backend extension: one
// partition per built replica.
func (rs *ReplicaSet) ShardPartitions() int { return len(rs.replicas) }

// ResetRunSharded is ResetRun with one engine per shard: replica i runs
// on engines[shardOf[i]]. It consumes stream draw-for-draw like ResetRun
// (replica 0 unsplit, then per-replica splits, then the router's), which
// is what keeps a sharded run byte-identical to the single-engine run.
// Configurations whose routing or scaling cannot run partitioned are
// rejected: the autoscaler is a global control loop, and only routing
// policies that are pure functions of the request over run-frozen state
// (consistent hashing) may be consulted concurrently from many shards.
func (rs *ReplicaSet) ResetRunSharded(engines []*sim.Engine, shardOf []int, stream *rng.Stream) error {
	if rs.auto != nil {
		return fmt.Errorf("cluster: autoscaling is not supported on the sharded path (its control loop is global)")
	}
	if rs.router.Name() != RouterConsistentHash {
		return fmt.Errorf("cluster: router %q cannot run sharded (stateful pick); use %s", rs.router.Name(), RouterConsistentHash)
	}
	if len(shardOf) != len(rs.replicas) {
		return fmt.Errorf("cluster: shard map covers %d replicas, have %d", len(shardOf), len(rs.replicas))
	}
	rs.engine = engines[shardOf[0]]
	rs.replicas[0].ResetRun(engines[shardOf[0]], stream)
	for i, b := range rs.replicas[1:] {
		b.ResetRun(engines[shardOf[i+1]], stream.Split())
	}
	rs.router.Reset(stream.Split())
	rs.active = rs.initial
	rs.router.Resize(rs.active)
	for i := range rs.outstanding {
		rs.outstanding[i] = 0
		rs.routed[i] = 0
	}
	rs.residSum, rs.residCnt = 0, 0
	rs.scaleLog = rs.scaleLog[:0]
	if rs.plan != nil {
		// Same draw order as ResetRun: the fault stream splits after the
		// router's, so the compiled windows are byte-identical across
		// execution modes.
		for i := range rs.engines {
			rs.engines[i] = engines[shardOf[i]]
		}
		rs.faultStream = stream.Split()
		rs.sched = nil
	}
	return nil
}

// ShardRoute picks req's replica at send time (sharded path). It is
// called concurrently from client shards: after ResetRunSharded the
// consistent-hash ring is frozen for the run, so Pick reads only
// immutable state. Per-replica outstanding counts are not maintained on
// this path (no policy or control loop reads them).
func (rs *ReplicaSet) ShardRoute(req *services.Request) int {
	if rs.sched != nil {
		i := rs.router.PickHealthy(req, rs.outstanding[:rs.active], rs.sched)
		req.Replica = i
		return i
	}
	i := rs.router.Pick(req, rs.outstanding[:rs.active])
	req.Replica = i
	return i
}

// ArriveRouted delivers a request ShardRoute already placed; it runs on
// the serving replica's shard, where the routed counter and the replica
// itself live. Under a fault schedule, a request routed to a replica
// that crashed while it was on the wire — or routed nowhere because no
// healthy replica existed — fails here instead of arriving.
func (rs *ReplicaSet) ArriveRouted(req *services.Request, now sim.Time) {
	if rs.sched != nil {
		if req.Replica < 0 {
			req.ServerArrive = now
			req.Fail(now)
			return
		}
		if rs.sched.ReplicaDown(req.Replica, now) {
			rs.routed[req.Replica]++
			req.ServerArrive = now
			req.Fail(now)
			return
		}
	}
	rs.routed[req.Replica]++
	rs.replicas[req.Replica].Arrive(req, now)
}

// Arrive implements services.Backend: route, account, forward. Under a
// fault schedule the pick is health-aware and — to stay byte-identical
// with the sharded path, which routes at send time — evaluates replica
// health at the request's send instant, while the arrival check below
// uses the arrival instant (both are pure schedule queries, so the two
// modes agree even when a crash boundary falls inside the link delay).
func (rs *ReplicaSet) Arrive(req *services.Request, now sim.Time) {
	if rs.sched != nil {
		rs.arriveFaulty(req, now)
		return
	}
	i := rs.router.Pick(req, rs.outstanding[:rs.active])
	req.Replica = i
	req.SetCompletionHook(rs)
	rs.outstanding[i]++
	rs.routed[i]++
	rs.replicas[i].Arrive(req, now)
}

func (rs *ReplicaSet) arriveFaulty(req *services.Request, now sim.Time) {
	i := rs.router.PickHealthy(req, rs.outstanding[:rs.active], rs.sched)
	req.Replica = i
	if i < 0 {
		// No healthy replica: the load balancer answers with an error.
		req.ServerArrive = now
		req.Fail(now)
		return
	}
	if rs.sched.ReplicaDown(i, now) {
		// Healthy when sent, dark on arrival.
		rs.routed[i]++
		req.ServerArrive = now
		req.Fail(now)
		return
	}
	req.SetCompletionHook(rs)
	rs.outstanding[i]++
	rs.routed[i]++
	rs.replicas[i].Arrive(req, now)
}

// RouteFor returns the replica a request would be (or was) routed to,
// without arriving it — the hedging layer's way to aim a hedge away
// from its primary. For consistent hashing the pick is a pure function
// of the request, so both execution modes compute the same answer even
// before the primary lands; stateful policies fall back to the recorded
// Replica (-1 when not yet routed).
func (rs *ReplicaSet) RouteFor(req *services.Request) int {
	if rs.router.Name() != RouterConsistentHash {
		return req.Replica
	}
	if rs.sched != nil {
		return rs.router.PickHealthy(req, rs.outstanding[:rs.active], rs.sched)
	}
	return rs.router.Pick(req, rs.outstanding[:rs.active])
}

// RequestDone implements services.CompletionHook: settle the replica's
// outstanding count and feed the latency signal. The hook fires before
// the generator's sink recycles the request. Failed requests settle
// outstanding but are excluded from the residence signal (an error
// response is not a served latency).
func (rs *ReplicaSet) RequestDone(req *services.Request, departed sim.Time) {
	rs.outstanding[req.Replica]--
	if req.Outcome == services.OutcomeFailed {
		return
	}
	rs.residSum += departed.Sub(req.ServerArrive)
	rs.residCnt++
}

// takeResidence drains the residence accumulator (latency signal).
func (rs *ReplicaSet) takeResidence() (time.Duration, int) {
	sum, n := rs.residSum, rs.residCnt
	rs.residSum, rs.residCnt = 0, 0
	return sum, n
}

// ReplicaSet event kinds, packed into the typed event's scalar argument
// below the replica index. The autoscaler tick keeps kind 0 with an
// empty arg, preserving the pre-fault event shape byte-for-byte.
const (
	rsEvTick    uint64 = iota // autoscaler sample (no payload)
	rsEvCrash                 // replica crash (replica index above kind bits)
	rsEvRestart               // replica restart (replica index above kind bits)

	rsEvKindBits = 8
	rsEvKindMask = (1 << rsEvKindBits) - 1
)

// scheduleTick arms the next autoscaler sample.
func (rs *ReplicaSet) scheduleTick(at sim.Time) {
	if at > rs.end {
		return
	}
	rs.engine.AtSink(at, rs, sim.EventArg{})
}

// OnEvent implements sim.EventSink: autoscaler ticks and replica
// crash/restart events. Crash and restart fire on the crashed replica's
// own engine; they only touch replica-local backend state (routing
// health comes from the pure schedule, not from these events), so the
// sharded path stays race-free.
func (rs *ReplicaSet) OnEvent(now sim.Time, arg sim.EventArg) {
	switch arg.U64 & rsEvKindMask {
	case rsEvTick:
		signal := rs.auto.sample(rs, now)
		if next := rs.auto.decide(now, rs.active, signal); next != rs.active {
			rs.active = next
			rs.router.Resize(next)
			rs.scaleLog = append(rs.scaleLog, ScaleEvent{At: now, Replicas: next, Signal: signal})
		}
		rs.scheduleTick(now.Add(rs.autoCfg.Interval))
	case rsEvCrash:
		rep := int(arg.U64 >> rsEvKindBits)
		if c, ok := rs.replicas[rep].(services.Crasher); ok {
			c.Crash(now)
		}
	case rsEvRestart:
		rep := int(arg.U64 >> rsEvKindBits)
		if c, ok := rs.replicas[rep].(services.Crasher); ok {
			c.Restart(now)
		}
	}
}

// ReplicaStats is one replica's end-of-run accounting.
type ReplicaStats struct {
	// Routed counts requests the router sent to this replica.
	Routed uint64
	// Completed sums the replica's tier completions (includes background
	// hiccup jobs, unlike Routed).
	Completed uint64
	// MaxSharedQueue / MaxConnQueue are the deepest shared-FIFO and
	// per-connection affinity backlogs across the replica's tiers.
	MaxSharedQueue int
	MaxConnQueue   int
	// BusyTime is the replica's total worker occupancy.
	BusyTime time.Duration
	// HiccupCount / HiccupTime sum the background-interference events
	// across the replica's tiers (the fault timeline's hiccup column).
	HiccupCount uint64
	HiccupTime  time.Duration
	// Fault-layer accounting: CrashWindows and DownTime come from the
	// compiled schedule; CrashFailed counts requests the replica failed
	// because it crashed with them in flight or queued; StragglerTime is
	// how long the replica ran service-time degraded.
	CrashWindows  int
	DownTime      time.Duration
	CrashFailed   uint64
	StragglerTime time.Duration
}

// RunStats is a ReplicaSet's end-of-run snapshot.
type RunStats struct {
	// Router is the policy name.
	Router string
	// Active is the replica count in rotation at the end of the run;
	// Capacity is the built count.
	Active, Capacity int
	// Replicas holds per-replica accounting, index = replica.
	Replicas []ReplicaStats
	// ScaleEvents is the autoscaler's decision log (nil without one).
	ScaleEvents []ScaleEvent
}

// Stats snapshots the run's cluster accounting. Call after the run
// completes and before the next ResetRun.
func (rs *ReplicaSet) Stats() RunStats {
	st := RunStats{
		Router:   rs.router.Name(),
		Active:   rs.active,
		Capacity: len(rs.replicas),
		Replicas: make([]ReplicaStats, len(rs.replicas)),
	}
	for i, b := range rs.replicas {
		r := ReplicaStats{Routed: rs.routed[i]}
		if prov, ok := b.(services.TierStatsProvider); ok {
			for _, ts := range prov.TierStats() {
				r.Completed += ts.Completed
				if ts.MaxSharedQueue > r.MaxSharedQueue {
					r.MaxSharedQueue = ts.MaxSharedQueue
				}
				if ts.MaxConnQueue > r.MaxConnQueue {
					r.MaxConnQueue = ts.MaxConnQueue
				}
				r.BusyTime += ts.BusyTime
				r.HiccupCount += ts.HiccupCount
				r.HiccupTime += ts.HiccupTime
				r.CrashFailed += ts.CrashFailed
			}
		}
		if rs.sched != nil {
			r.CrashWindows = rs.sched.CrashCount(i)
			r.DownTime = rs.sched.Downtime(i)
			r.StragglerTime = rs.sched.StragglerTime(i)
		}
		st.Replicas[i] = r
	}
	if len(rs.scaleLog) > 0 {
		st.ScaleEvents = append([]ScaleEvent(nil), rs.scaleLog...)
	}
	return st
}

// Skew is the load-balance skew over the replicas that served traffic:
// the maximum routed count divided by the mean. 1.0 is perfect balance;
// consistent hashing under a Zipfian key popularity drives it well
// above the round-robin baseline.
//
// Participation is defined by Routed > 0, not by the final Active
// count: under an autoscaler a replica can be in rotation mid-run and
// out of it by run end, and truncating to the final Active prefix would
// silently drop exactly the replicas a scale-up-then-down run routed
// load to (and, with them, the imbalance they absorbed).
func (s RunStats) Skew() float64 {
	var sum, max uint64
	n := 0
	for _, r := range s.Replicas {
		if r.Routed == 0 {
			continue
		}
		n++
		sum += r.Routed
		if r.Routed > max {
			max = r.Routed
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(n) / float64(sum)
}
