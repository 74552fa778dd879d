// Package services models the server side of the paper's testbed: worker
// pools executing requests on simulated machines (package hw), with FIFO
// queueing, C-state wake penalties on idle workers, SMT-aware network-stack
// costs, and background-interference "hiccups". Four backends implement the
// paper's benchmarks (§IV-B): Memcached (over a copy-on-write store of
// value sizes by key rank), HDSearch (a three-tier service over a real
// LSH index), Social Network (a four-container service chain whose
// timeline reads each return a fixed number of posts), and the
// tunable-latency synthetic workload.
package services

import (
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Request is one end-to-end request tracked from generator to service and
// back. The workload generator fills the client-side fields; the backend
// fills the server-side ones.
//
// Requests are pooled on the hot path: generators draw them from a
// RequestPool and return them once measured, so steady-state traffic
// allocates no Request objects. Backends treat a request as live only
// between Arrive and the completion callback; holding a *Request past
// completion observes recycled state.
type Request struct {
	ID     uint64
	Thread int // generator thread that owns the request
	Conn   int // connection the request was sent on (worker affinity key)

	// Scheduled is the target send instant drawn from the inter-arrival
	// distribution; SentAt is when the generator actually timestamped and
	// transmitted it (the difference is the workload distortion the paper
	// describes in §II).
	Scheduled sim.Time
	SentAt    sim.Time

	// ServerArrive/ServerDepart bracket the server-side residence.
	ServerArrive sim.Time
	ServerDepart sim.Time

	// ResponseBytes sizes the response payload for the return link.
	ResponseBytes int

	// Payload carries the service-specific request body.
	Payload any

	// KV carries a key-value request body inline (HasKV set) instead of
	// boxed in Payload: storing a struct with a string field in an
	// interface heap-allocates, and for the Memcached path that boxing
	// was the last per-request allocation once keys were interned. Its
	// interned Key routes the request; the Memcached store reads its Rank.
	KV    workload.KVRequest
	HasKV bool

	// Stage is backend-owned state: multi-hop services (HDSearch,
	// SocialNet) record which hop of their per-request state machine the
	// request is on, instead of capturing it in a chain of closures.
	Stage int

	// Scratch is backend-owned numeric state carried between hops (e.g.
	// a result count that later sizes the response).
	Scratch int64

	// Replica is cluster-owned state: the index of the replica serving
	// the request, recorded by the routing layer so completion can settle
	// per-replica outstanding counts without any per-request allocation.
	Replica int

	// Outcome classifies how the request ended. The zero value is
	// OutcomeOK, so the fault-free path never touches it.
	Outcome Outcome

	// Resilience state, client-owned. Attempt counts re-sends (0 = first
	// attempt); FirstSent is the first attempt's send instant, preserved
	// across retries so end-to-end latency spans the whole exchange;
	// WireBytes is the request's wire size, preserved so re-sends pay the
	// same link cost; Backoff is the previous retry's backoff (the
	// decorrelated-jitter recurrence state); Abandoned marks a request
	// the client gave up on (its late response, if any, is dropped and
	// recycled on arrival); Avoid biases routing away from replica
	// Avoid-1 (0 = no bias) so a hedge lands on a different replica than
	// its primary; Hedged marks the hedge clone of a pair; Peer links the
	// two live halves of a hedged pair until one side wins.
	Attempt   int
	FirstSent sim.Time
	WireBytes int
	Backoff   time.Duration
	Abandoned bool
	Avoid     int
	Hedged    bool
	Peer      *Request

	// TimeoutEv / HedgeEv are the client's pending timer events for this
	// request, cancelled when the response arrives first.
	TimeoutEv sim.EventID
	HedgeEv   sim.EventID

	// onComplete / sink: exactly one is invoked when the response leaves
	// the server. sink is the typed, allocation-free form; onComplete is
	// the closure form kept for tests and one-off drivers.
	onComplete func(req *Request, departed sim.Time)
	sink       CompletionSink

	// hook, when set, observes the completion before the sink/closure
	// fires — the cluster layer's interposition point.
	hook CompletionHook
}

// CompletionHook observes request completions before the completion
// sink/closure runs. Unlike CompletionSink it does not own the request —
// it must not recycle or retain it.
type CompletionHook interface {
	RequestDone(req *Request, departed sim.Time)
}

// SetCompletionHook installs (or, with nil, clears) the completion hook.
func (r *Request) SetCompletionHook(h CompletionHook) { r.hook = h }

// CompletionSink receives request completions on the typed path. The
// generator installs one long-lived sink per run instead of allocating a
// completion closure per request.
type CompletionSink interface {
	OnComplete(req *Request, departed sim.Time)
}

// SetCompletion installs the completion callback (the generator's receive
// path). It must be set before the request arrives at a backend.
func (r *Request) SetCompletion(fn func(req *Request, departed sim.Time)) {
	r.onComplete = fn
	r.sink = nil
}

// SetCompletionSink installs the typed completion sink — the
// allocation-free alternative to SetCompletion.
func (r *Request) SetCompletionSink(s CompletionSink) {
	r.sink = s
	r.onComplete = nil
}

// Outcome classifies how a request ended.
type Outcome uint8

const (
	// OutcomeOK is a normal completion (the zero value).
	OutcomeOK Outcome = iota
	// OutcomeFailed marks a server-side failure: the replica was down on
	// arrival, crashed with the request in flight, or no healthy replica
	// existed. The client receives a small error response.
	OutcomeFailed
	// OutcomeTimedOut marks a request the client abandoned after its
	// per-request timeout; recorded on the abandoned attempt.
	OutcomeTimedOut
	// OutcomeHedgeWon marks a success delivered by the hedge clone
	// rather than the primary attempt.
	OutcomeHedgeWon
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeFailed:
		return "failed"
	case OutcomeTimedOut:
		return "timed-out"
	case OutcomeHedgeWon:
		return "hedge-won"
	}
	return "unknown"
}

// failResponseBytes sizes the error response a failed request carries
// back to the client (an RST-sized frame, not a service payload).
const failResponseBytes = 16

// Fail completes the request as a server-side failure at now: the fault
// layer's path for requests on a crashed replica. The error response
// travels the return link like any completion, so the client observes
// the failure after the usual network delay and can apply its retry
// policy.
func (r *Request) Fail(now sim.Time) {
	r.Outcome = OutcomeFailed
	r.ResponseBytes = failResponseBytes
	r.complete(now)
}

func (r *Request) complete(departed sim.Time) {
	r.ServerDepart = departed
	if r.hook != nil {
		r.hook.RequestDone(r, departed)
	}
	if r.sink != nil {
		r.sink.OnComplete(r, departed)
	} else if r.onComplete != nil {
		r.onComplete(r, departed)
	}
}

// RequestPool is a deterministic LIFO free list of Request objects. Each
// generator owns one (they are not safe for concurrent use); because the
// simulated world is single-clocked and the pool is plain LIFO, reuse
// order is a pure function of the event sequence, preserving bit-exact
// reproducibility. Returned requests are fully zeroed, so a pooled run is
// indistinguishable from a freshly-allocating one.
type RequestPool struct {
	free  []*Request
	grown int
}

// Get returns a zeroed Request, reusing a recycled one when available.
func (p *RequestPool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	p.grown++
	return &Request{}
}

// Put recycles req. The caller must be done with every reference: the
// object is zeroed (dropping payload and sink references for the GC) and
// handed to the next Get.
func (p *RequestPool) Put(req *Request) {
	*req = Request{}
	p.free = append(p.free, req)
}

// Allocated reports how many Requests the pool has created fresh — like
// sim.Engine.EventAllocs, it stops growing in steady state.
func (p *RequestPool) Allocated() int { return p.grown }

// TierStats is a snapshot of one worker pool's run-scoped counters,
// separated by queue discipline (shared FIFO vs. per-connection affinity).
type TierStats struct {
	Tier           string
	Workers        int
	Completed      uint64
	MaxSharedQueue int
	MaxConnQueue   int
	BusyTime       time.Duration
	// HiccupCount / HiccupTime account the background-interference jobs
	// the tier injected (nominal durations, before contention inflation).
	HiccupCount uint64
	HiccupTime  time.Duration
	// CrashFailed counts requests this tier failed because the replica
	// crashed with them in flight or queued.
	CrashFailed uint64
}

// Stats snapshots the tier's run-scoped counters.
func (t *Tier) Stats() TierStats {
	return TierStats{
		Tier:           t.name,
		Workers:        len(t.workers),
		Completed:      t.completed,
		MaxSharedQueue: t.maxSharedQueue,
		MaxConnQueue:   t.maxConnQueue,
		BusyTime:       t.busyTime,
		HiccupCount:    t.hiccupCount,
		HiccupTime:     t.hiccupTime,
		CrashFailed:    t.crashFailed,
	}
}

// TierStatsProvider is implemented by backends that expose per-tier run
// statistics. The cluster layer relies on it for end-of-run load-balance
// figures.
type TierStatsProvider interface {
	// TierStats lists the backend's tiers in a fixed order.
	TierStats() []TierStats
}

// OccupancyProvider is the autoscaler's sampling channel: Occupancy sums
// worker busy time and pool size across the backend's tiers without
// building a TierStats slice. TierStats allocates per call — fine once
// at end of run, ruinous on every virtual-time autoscaler tick — so the
// control loop samples this instead (BenchmarkAutoscalerTick pins the
// tick at zero allocations).
type OccupancyProvider interface {
	// Occupancy returns the cumulative worker busy time and the worker
	// count summed over the backend's tiers.
	Occupancy() (busy time.Duration, workers int)
}

// Crasher is implemented by backends that support replica crash faults:
// Crash fails all in-flight and queued requests at now and takes the
// backend dark (background work is dropped, defensive arrivals fail);
// Restart brings it back up with empty queues. The cluster layer gates
// arrivals against the fault schedule, so a crashed backend normally
// sees no traffic while dark.
type Crasher interface {
	Crash(now sim.Time)
	Restart(now sim.Time)
}

// Degrader is implemented by backends whose service times can be scaled
// by a straggler schedule. SetDegrade installs (or with nil clears) the
// per-run schedule on every tier of the backend; the fault layer
// installs it at run start and it must be re-installed each run.
type Degrader interface {
	SetDegrade(d *faults.DegradeSchedule)
}

// Backend is a service under test. Implementations must be driven from a
// single sim.Engine goroutine.
//
// Backends are long-lived, reusable environments: one instance serves
// many runs back to back, and the envpool layer additionally leases idle
// instances across scenarios that share a server configuration. Both
// rest on the same contract — ResetRun must be complete. Every piece of
// state a run can observe (queues, noise scales, stored data a request's
// cost depends on) must be restored from the fresh engine and stream, so
// a run's outcome is a pure function of (configuration, run stream) and
// never of which runs the instance served before.
type Backend interface {
	// Name identifies the service in reports.
	Name() string
	// Arrive delivers a request to the service's entry point at now (the
	// instant it clears the client→server link). The backend eventually
	// calls the request's completion callback with the instant the
	// response leaves the server.
	Arrive(req *Request, now sim.Time)
	// ResetRun clears run-scoped state and re-seeds service-time noise.
	// The engine passed is the run's fresh engine.
	ResetRun(engine *sim.Engine, stream *rng.Stream)
	// StartRun schedules run-length background activity (hiccups) up to
	// the given end of run.
	StartRun(end sim.Time)
	// Machines lists the server machines, for per-run hardware resets and
	// diagnostics.
	Machines() []*hw.Machine
	// MeanServiceTime reports the nominal mean per-request service time,
	// used for utilization accounting and Little's-law sizing.
	MeanServiceTime() float64 // seconds
}
