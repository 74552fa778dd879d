package services

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Network-stack processing constants. On an SMT-disabled server the RX/TX
// softirq work executes on the worker's own core and extends the request's
// occupancy; with SMT enabled it largely runs on the sibling hardware
// thread, which is the mechanism behind the SMT speedup the paper's server
// study measures (Fig. 2).
const (
	stackCostSMTOff = 1800 * time.Nanosecond
	stackCostSMTOn  = 500 * time.Nanosecond

	// wakeDispatchCost is the scheduler cost to hand a request to a
	// worker thread that was blocked idle (much cheaper than the client
	// event-loop context switch because the server thread is already hot
	// on its dedicated core).
	wakeDispatchCost = 2 * time.Microsecond
)

// Background-interference ("hiccup") model defaults: occasional
// kernel/daemon activity steals a worker for a while, producing the
// right-skewed run distributions of the paper's Figure 9. TierConfig
// overrides both knobs; these remain the calibrated defaults.
const (
	defaultHiccupRatePerSec   = 1.2
	defaultHiccupMeanDuration = 700 * time.Microsecond
)

// JobSink receives tier job completions. Backends implement it once
// (dispatching multi-hop services on Request.Stage), so submitting work
// allocates nothing — the pre-refactor API took a fresh `done` closure
// per request instead.
type JobSink interface {
	// JobDone fires at the instant the worker finishes the job. req is
	// the job's request (nil for background work such as hiccups).
	JobDone(end sim.Time, req *Request)
}

// noopJobSink absorbs background-job completions.
type noopJobSink struct{}

func (noopJobSink) JobDone(sim.Time, *Request) {}

var noopSink JobSink = noopJobSink{}

// tierJob is one unit of queued work. Jobs are plain values held in
// reusable queue slices: queuing work never allocates in steady state.
type tierJob struct {
	cost time.Duration
	req  *Request
	sink JobSink
}

// jobFIFO is a head-indexed FIFO of tierJobs. Pop is O(1): it advances a
// head cursor instead of sliding the whole backlog down with copy (the
// old per-dispatch O(n) cost). Popped slots are zeroed so recycled
// requests and sinks are not pinned, the backing slice is reused across
// pushes, and pushes compact the live window back to the front only when
// the slice would otherwise grow — amortized O(1) per job.
type jobFIFO struct {
	jobs []tierJob
	head int
}

// depth returns the number of queued jobs.
func (q *jobFIFO) depth() int { return len(q.jobs) - q.head }

// push appends a job, compacting the dead head region first if the
// backing array is full (so sustained backlogs reuse slots instead of
// growing the slice by the total throughput).
func (q *jobFIFO) push(j tierJob) {
	if q.head > 0 && len(q.jobs) == cap(q.jobs) {
		n := copy(q.jobs, q.jobs[q.head:])
		for i := n; i < len(q.jobs); i++ {
			q.jobs[i] = tierJob{}
		}
		q.jobs = q.jobs[:n]
		q.head = 0
	}
	q.jobs = append(q.jobs, j)
}

// pop removes and returns the oldest job. The caller must check depth.
func (q *jobFIFO) pop() tierJob {
	j := q.jobs[q.head]
	q.jobs[q.head] = tierJob{}
	q.head++
	if q.head == len(q.jobs) {
		q.jobs = q.jobs[:0]
		q.head = 0
	}
	return j
}

// reset empties the queue, dropping job references but keeping the
// backing array for reuse across runs.
func (q *jobFIFO) reset() {
	for i := q.head; i < len(q.jobs); i++ {
		q.jobs[i] = tierJob{}
	}
	q.jobs = q.jobs[:0]
	q.head = 0
}

// tierWorker is one service thread pinned to a hardware thread. Workers
// are values in the tier's flat slice (fixed at construction, so
// &t.workers[i] is stable and rides in event args); busy/idle state
// lives in the tier's busyMask bitmap, not here, so the idle scan reads
// one word instead of striding over ~100-byte worker structs.
type tierWorker struct {
	core *hw.Core
	// index is the worker's position in the tier's slice and busyMask —
	// completions arrive with only the worker pointer, and the index
	// gets the mask bit back without pointer arithmetic.
	index int32
	// cur is the in-flight job, delivered back to the tier's completion
	// event via the worker pointer (no per-job closure).
	cur tierJob
	// queue is the worker's private backlog in affinity mode (memcached
	// pins each connection to one worker thread, so a hot worker queues
	// even while others idle).
	queue jobFIFO
	// doneEv is the pending completion event for cur, kept so a replica
	// crash can cancel the in-flight work instead of letting it complete
	// after the machine went dark.
	doneEv sim.EventID
}

// Tier is a pool of worker threads with a shared FIFO queue, pinned to
// cores of one machine — the structure of a memcached instance ("10 worker
// threads pinned on a single socket", §IV-B) and of each HDSearch /
// Social Network tier.
type Tier struct {
	name   string
	engine *sim.Engine
	// stackCost is StackCost, fixed by the machine's SMT setting.
	stackCost time.Duration
	workers   []tierWorker
	// busyMask has bit i set ⇔ workers[i] is busy. Phantom bits past the
	// pool size are kept set so "any idle worker?" is one != ^0 compare
	// per word and the first-idle pick is a TrailingZeros.
	busyMask []uint64
	queue    jobFIFO

	// stream is drawn one value at a time, unlike a link's jitter or an
	// arrival source's gaps: per-request noise (Noise), the tail-stall
	// coin and, when it hits, the stall's length (TailJitter), and each
	// hiccup's length and next gap all interleave on it in event order.
	// Noise values drawn ahead would take the values those other draws
	// own.
	stream       *rng.Stream
	serviceScale float64
	hiccups      bool
	hiccupEnd    sim.Time // horizon for background-interference injection
	hiccupRate   float64
	hiccupMean   time.Duration
	contention   float64
	tailProb     float64
	tailMean     time.Duration

	// Fault-layer state (run-scoped). down marks the tier dark after a
	// crash: arrivals fail defensively and background work is dropped
	// until Restart. deg is the replica's straggler schedule, installed
	// per run by the cluster layer (nil on the fault-free path — its
	// only cost there is one nil check per submission).
	down bool
	deg  *faults.DegradeSchedule

	// Statistics (run-scoped). Shared-FIFO and per-connection affinity
	// backlogs are tracked separately: they measure different phenomena
	// (pool saturation vs. per-worker hot-spotting) and conflating them
	// under one maximum made load-balance statistics subtly wrong.
	completed      uint64
	maxSharedQueue int
	maxConnQueue   int
	busyCount      int
	busyTime       time.Duration
	hiccupCount    uint64
	hiccupTime     time.Duration
	crashFailed    uint64
}

// TierConfig configures a worker pool.
type TierConfig struct {
	Name    string
	Machine *hw.Machine
	// Cores pins workers to these hardware threads of Machine.
	Cores []int
	// Hiccups enables background-interference injection on this tier.
	Hiccups bool
	// HiccupRatePerSec / HiccupMeanDuration tune the hiccup model: the
	// Poisson arrival rate of interference events (per virtual second)
	// and the mean lognormal stall length. Zero values select the
	// calibrated defaults (1.2/s, 700µs); they only apply when Hiccups
	// is set.
	HiccupRatePerSec   float64
	HiccupMeanDuration time.Duration
	// Contention inflates a request's service time by this fraction per
	// concurrently busy worker, modelling shared LLC/memory-bandwidth
	// pressure. It is what bends the latency curves upward as load grows.
	Contention float64
	// TailJitterProb is the per-request probability of a kernel-side
	// stall (softirq collision, cross-socket miss storm) of mean
	// TailJitterMean — the source of the service's intrinsic p99 tail.
	TailJitterProb float64
	TailJitterMean time.Duration
}

// NewTier builds a tier. The engine is attached per run via ResetRun.
func NewTier(cfg TierConfig) (*Tier, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("services: tier %q has no machine", cfg.Name)
	}
	if len(cfg.Cores) == 0 {
		return nil, fmt.Errorf("services: tier %q has no worker cores", cfg.Name)
	}
	if cfg.Contention < 0 {
		return nil, fmt.Errorf("services: tier %q has negative contention factor", cfg.Name)
	}
	if cfg.TailJitterProb < 0 || cfg.TailJitterProb > 1 {
		return nil, fmt.Errorf("services: tier %q tail jitter probability %v outside [0,1]", cfg.Name, cfg.TailJitterProb)
	}
	if cfg.HiccupRatePerSec < 0 {
		return nil, fmt.Errorf("services: tier %q has negative hiccup rate %g", cfg.Name, cfg.HiccupRatePerSec)
	}
	if cfg.HiccupMeanDuration < 0 {
		return nil, fmt.Errorf("services: tier %q has negative hiccup mean duration %v", cfg.Name, cfg.HiccupMeanDuration)
	}
	hiccupRate := cfg.HiccupRatePerSec
	if hiccupRate == 0 {
		hiccupRate = defaultHiccupRatePerSec
	}
	hiccupMean := cfg.HiccupMeanDuration
	if hiccupMean == 0 {
		hiccupMean = defaultHiccupMeanDuration
	}
	stackCost := stackCostSMTOff
	if cfg.Machine.Config().SMT {
		stackCost = stackCostSMTOn
	}
	t := &Tier{name: cfg.Name, stackCost: stackCost, hiccups: cfg.Hiccups,
		hiccupRate: hiccupRate, hiccupMean: hiccupMean,
		contention: cfg.Contention, tailProb: cfg.TailJitterProb, tailMean: cfg.TailJitterMean,
		serviceScale: 1}
	for _, id := range cfg.Cores {
		if id < 0 || id >= cfg.Machine.NumThreads() {
			return nil, fmt.Errorf("services: tier %q pins core %d outside machine with %d threads",
				cfg.Name, id, cfg.Machine.NumThreads())
		}
		t.workers = append(t.workers, tierWorker{core: cfg.Machine.Core(id), index: int32(len(t.workers))})
	}
	t.busyMask = make([]uint64, (len(t.workers)+63)/64)
	t.clearBusyMask()
	return t, nil
}

// clearBusyMask marks every worker idle and every phantom bit (past the
// pool size in the last word) busy, so idleWorker's per-word any-idle
// test never has to special-case the tail.
func (t *Tier) clearBusyMask() {
	for i := range t.busyMask {
		t.busyMask[i] = 0
	}
	for i := len(t.workers); i < len(t.busyMask)*64; i++ {
		t.busyMask[i>>6] |= 1 << uint(i&63)
	}
}

func (t *Tier) setBusy(i int32)   { t.busyMask[i>>6] |= 1 << uint(i&63) }
func (t *Tier) clearBusy(i int32) { t.busyMask[i>>6] &^= 1 << uint(i&63) }
func (t *Tier) busy(i int) bool   { return t.busyMask[i>>6]&(1<<uint(i&63)) != 0 }

// Name returns the tier's label.
func (t *Tier) Name() string { return t.name }

// Workers returns the pool size.
func (t *Tier) Workers() int { return len(t.workers) }

// Completed returns the number of jobs finished this run.
func (t *Tier) Completed() uint64 { return t.completed }

// MaxSharedQueueDepth returns the deepest shared-FIFO backlog observed
// this run (Submit path: jobs waiting because every worker was busy).
func (t *Tier) MaxSharedQueueDepth() int { return t.maxSharedQueue }

// MaxConnQueueDepth returns the deepest per-worker affinity backlog
// observed this run (SubmitConn path: jobs waiting on their connection's
// designated worker even while others idle).
func (t *Tier) MaxConnQueueDepth() int { return t.maxConnQueue }

// MaxQueueDepth returns the deepest backlog observed this run across
// both queue disciplines — the maximum of the shared-FIFO and affinity
// depths, preserving the pre-split meaning for existing callers.
func (t *Tier) MaxQueueDepth() int {
	if t.maxSharedQueue > t.maxConnQueue {
		return t.maxSharedQueue
	}
	return t.maxConnQueue
}

// BusyTime returns the accumulated worker occupancy this run: the sum of
// every dispatched job's actual execution window (including contention
// inflation and DVFS stretch, excluding queueing and wake latency). With
// W workers over a run of length T, BusyTime/(W·T) is the tier's
// utilization — the signal cluster autoscaling samples.
func (t *Tier) BusyTime() time.Duration { return t.busyTime }

// StackCost returns the per-request network-stack occupancy charged to the
// worker under the machine's SMT setting.
func (t *Tier) StackCost() time.Duration { return t.stackCost }

// ResetRun clears the queue and draws fresh run-scoped service noise:
// a small lognormal scale plus an occasional "disturbed run" inflation
// (background daemon active for the whole run), which is what makes
// same-configuration runs differ — the variability under study.
func (t *Tier) ResetRun(engine *sim.Engine, stream *rng.Stream) {
	t.engine = engine
	t.stream = stream
	t.queue.reset()
	t.completed = 0
	t.maxSharedQueue = 0
	t.maxConnQueue = 0
	t.busyCount = 0
	t.busyTime = 0
	t.hiccupCount = 0
	t.hiccupTime = 0
	t.crashFailed = 0
	t.down = false
	t.deg = nil
	for i := range t.workers {
		w := &t.workers[i]
		w.cur = tierJob{}
		w.queue.reset()
	}
	t.clearBusyMask()
	scale := stream.LogNormal(0, 0.012)
	if stream.Float64() < 0.10 {
		scale *= 1 + 0.03 + 0.09*stream.Float64()
	}
	t.serviceScale = scale
}

// Tier event kinds, packed into the typed event's scalar argument.
const (
	tierEvDone   uint64 = iota // a worker finished its job (Ptr: *tierWorker)
	tierEvHiccup               // background-interference arrival (Ptr: nil)
)

// StartRun schedules background hiccups until end.
func (t *Tier) StartRun(end sim.Time) {
	if !t.hiccups {
		return
	}
	t.hiccupEnd = end
	t.scheduleHiccup(sim.Time(0).Add(time.Duration(t.stream.Exp(t.hiccupRate) * float64(time.Second))))
}

func (t *Tier) scheduleHiccup(at sim.Time) {
	if at > t.hiccupEnd {
		return
	}
	t.engine.AtSink(at, t, sim.EventArg{U64: tierEvHiccup})
}

// OnEvent implements sim.EventSink: the tier's two event kinds are job
// completions and hiccup arrivals. RNG draw order matches the retired
// closure implementation exactly, keeping runs bit-identical.
func (t *Tier) OnEvent(now sim.Time, arg sim.EventArg) {
	switch arg.U64 {
	case tierEvDone:
		w := arg.Ptr.(*tierWorker)
		job := w.cur
		w.cur = tierJob{}
		t.completed++
		job.sink.JobDone(now, job.req)
		t.finishWorker(now, w)
	case tierEvHiccup:
		// Draws happen whether or not the tier is dark, so the stream
		// position (and with it every later draw) is independent of crash
		// timing. A dark machine just doesn't run the interference.
		dur := time.Duration(t.stream.LogNormal(0, 0.6) * float64(t.hiccupMean))
		if !t.down {
			t.hiccupCount++
			t.hiccupTime += dur
			t.Submit(now, dur, nil, noopSink)
		}
		t.scheduleHiccup(now.Add(time.Duration(t.stream.Exp(t.hiccupRate) * float64(time.Second))))
	}
}

// Noise returns a multiplicative service-time noise sample combining the
// run-scoped scale with per-request lognormal variation.
func (t *Tier) Noise(sigma float64) float64 {
	return t.serviceScale * t.stream.LogNormal(0, sigma)
}

// TailJitter returns an occasional kernel-side stall to add to a request's
// service time (zero for most requests).
func (t *Tier) TailJitter() time.Duration {
	if t.tailProb <= 0 || t.stream.Float64() >= t.tailProb {
		return 0
	}
	return time.Duration(t.stream.Exp(1) * float64(t.tailMean))
}

// Submit enqueues work of the given core occupancy on the shared FIFO;
// sink.JobDone(end, req) fires at its completion instant (req may be nil
// for background work). The cost must already include any service noise;
// the tier applies queueing, worker wake latency, SMT contention and DVFS
// effects through the hardware model. Submitting allocates nothing in
// steady state: jobs are values in reusable queues and the completion is
// a pooled typed event.
func (t *Tier) Submit(now sim.Time, cost time.Duration, req *Request, sink JobSink) {
	if t.down {
		t.rejectDark(now, req)
		return
	}
	if t.deg != nil {
		cost = time.Duration(float64(cost) * t.deg.FactorAt(now))
	}
	job := tierJob{cost: cost, req: req, sink: sink}
	w := t.idleWorker()
	if w == nil {
		t.queue.push(job)
		if d := t.queue.depth(); d > t.maxSharedQueue {
			t.maxSharedQueue = d
		}
		return
	}
	t.dispatch(now, w, job)
}

// SubmitConn enqueues work with connection affinity: the connection's
// designated worker serves it even if other workers are idle — memcached's
// libevent model, where each connection is bound to one worker thread.
// This per-worker queueing is what bends the latency curve upward with
// load well before the pool is saturated.
func (t *Tier) SubmitConn(now sim.Time, conn int, cost time.Duration, req *Request, sink JobSink) {
	if t.down {
		t.rejectDark(now, req)
		return
	}
	if t.deg != nil {
		cost = time.Duration(float64(cost) * t.deg.FactorAt(now))
	}
	// Non-negative modulo: negating conn would overflow for math.MinInt
	// (still negative), and a negative index panics below.
	idx := conn % len(t.workers)
	if idx < 0 {
		idx += len(t.workers)
	}
	w := &t.workers[idx]
	job := tierJob{cost: cost, req: req, sink: sink}
	if t.busy(idx) {
		w.queue.push(job)
		if d := w.queue.depth(); d > t.maxConnQueue {
			t.maxConnQueue = d
		}
		return
	}
	t.dispatch(now, w, job)
}

// idleWorker finds the lowest-indexed idle worker: one any-idle compare
// plus a TrailingZeros per mask word, instead of the old pointer-chasing
// scan over worker structs.
func (t *Tier) idleWorker() *tierWorker {
	for wi, word := range t.busyMask {
		if word != ^uint64(0) {
			return &t.workers[wi*64+bits.TrailingZeros64(^word)]
		}
	}
	return nil
}

// dispatch runs job on w starting at now. The worker pays its C-state exit
// latency (the server-side C1E penalty of Fig. 3 arises here) plus a small
// dispatch cost when it was sleeping.
func (t *Tier) dispatch(now sim.Time, w *tierWorker, job tierJob) {
	t.setBusy(w.index)
	t.busyCount++
	if t.contention > 0 && t.busyCount > 1 {
		job.cost = time.Duration(float64(job.cost) * (1 + t.contention*float64(t.busyCount-1)))
	}
	start := now
	if w.core.Idle() {
		wasDeep := w.core.CStateIndex() != 0 // not C0, the polling idle
		start = w.core.Wake(now)
		if wasDeep {
			start = start.Add(wakeDispatchCost)
		}
	} else if w.core.BusyUntil() > start {
		start = w.core.BusyUntil()
	}
	end := w.core.Execute(start, job.cost)
	t.busyTime += end.Sub(start)
	w.cur = job
	w.doneEv = t.engine.AtSink(end, t, sim.EventArg{Ptr: w, U64: tierEvDone})
}

// finishWorker pulls the next queued job (its own affinity queue first,
// then the shared queue) or puts the worker to sleep.
func (t *Tier) finishWorker(now sim.Time, w *tierWorker) {
	t.clearBusy(w.index)
	t.busyCount--
	if w.queue.depth() > 0 {
		t.dispatch(now, w, w.queue.pop())
		return
	}
	if t.queue.depth() > 0 {
		t.dispatch(now, w, t.queue.pop())
		return
	}
	// Server worker threads block on the socket with no timer armed: the
	// idle governor has no deadline hint.
	if !w.core.Idle() && w.core.BusyUntil() <= now {
		w.core.Sleep(now, 0)
	}
}

// SetDegrade installs (or with nil clears) the straggler schedule: every
// subsequently submitted job's cost is multiplied by the schedule's
// factor at its submission instant. ResetRun clears it, so the cluster
// layer re-installs per run.
func (t *Tier) SetDegrade(d *faults.DegradeSchedule) { t.deg = d }

// rejectDark handles a submission while the tier is crashed: requests
// fail immediately (the routing layer normally gates these, so this is a
// defensive backstop for mid-chain hops), background work is dropped.
func (t *Tier) rejectDark(now sim.Time, req *Request) {
	if req != nil && req.Outcome != OutcomeFailed {
		t.crashFailed++
		req.Fail(now)
	}
}

// Crash takes the tier dark at now: pending completion events are
// cancelled, the in-flight and queued requests fail (their error
// responses leave at now), background jobs are dropped, and the tier
// rejects work until Restart. Workers iterate in index order and queues
// drain FIFO, so the burst of failure completions is ordered
// deterministically. BusyTime keeps the already-accounted occupancy of
// cancelled jobs (scheduled occupancy, not retroactively trimmed), and
// core BusyUntil marks are left as-is — a microsecond-scale artifact
// absorbed at restart.
func (t *Tier) Crash(now sim.Time) {
	for i := range t.workers {
		w := &t.workers[i]
		if t.busy(i) && w.cur.sink != nil {
			t.engine.Cancel(w.doneEv)
			job := w.cur
			w.cur = tierJob{}
			if job.req != nil && job.req.Outcome != OutcomeFailed {
				t.crashFailed++
				job.req.Fail(now)
			}
		}
		for w.queue.depth() > 0 {
			job := w.queue.pop()
			if job.req != nil && job.req.Outcome != OutcomeFailed {
				t.crashFailed++
				job.req.Fail(now)
			}
		}
	}
	for t.queue.depth() > 0 {
		job := t.queue.pop()
		if job.req != nil && job.req.Outcome != OutcomeFailed {
			t.crashFailed++
			job.req.Fail(now)
		}
	}
	t.busyCount = 0
	t.clearBusyMask()
	t.down = true
}

// Restart brings a crashed tier back up with empty queues and idle
// workers.
func (t *Tier) Restart(now sim.Time) { t.down = false }
