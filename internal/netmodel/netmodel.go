// Package netmodel models the network path between client and server
// machines in the test cluster: a fixed propagation+switching base latency
// with small lognormal jitter, plus a serialization term proportional to
// message size.
//
// The paper's experiments hold the network fixed (same rack-scale testbed
// for every configuration), so this model deliberately has no contention
// state — cross-run network variability is not the effect under study
// (the paper cites it as a separate source investigated by [44], [47]).
package netmodel

import (
	"fmt"
	"math"
	"time"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Link is one direction of a client↔server network path.
type Link struct {
	base      time.Duration
	jitterSD  float64 // sigma of the lognormal jitter multiplier
	perByteNs float64
	min       time.Duration // hard delay floor (= Config.MinDelay)
	stream    *rng.Stream
	delivered uint64

	// deg, when set, degrades the link per the fault layer's compiled
	// windows: a delay multiplier ≥ 1 (so MinDelay — and with it the
	// sharding lookahead — still lower-bounds every delay) and a loss
	// probability. Nil on the fault-free path.
	deg *faults.LinkSchedule

	// Same-deadline delivery batching (see Deliver): at most one flush
	// event is pending per link at a time, holding the most recent batch.
	pendingBatch  *deliveryBatch
	pendingEngine *sim.Engine
	pendingFrom   sim.Time
	pendingTime   sim.Time
	pendingID     sim.EventID
	pendingSeq    uint64
	freeBatches   []*deliveryBatch
}

// Config parameterizes a link.
type Config struct {
	// Base is the zero-byte one-way latency (propagation + switch + NIC).
	// A rack-scale 10 GbE path is ≈5 µs.
	Base time.Duration
	// JitterSD is the standard deviation of the log of the jitter
	// multiplier (0 = deterministic).
	JitterSD float64
	// PerByteNs is the serialization cost per payload byte in
	// nanoseconds (10 GbE ≈ 0.8 ns/B).
	PerByteNs float64
}

// DefaultConfig returns a rack-scale 10 GbE link: 5 µs base, mild jitter.
func DefaultConfig() Config {
	return Config{Base: 5 * time.Microsecond, JitterSD: 0.08, PerByteNs: 0.8}
}

// MinDelay returns a hard lower bound on any delay the link can produce:
// the zero-byte base latency shrunk by the smallest realizable jitter
// multiplier, exp(-8·JitterSD). A lognormal draw below -8σ has
// probability ~1e-15 and Delay clamps to this floor, so the bound is
// exact, not probabilistic — which is what lets sharded runs use it as
// conservative lookahead (sim.ShardSet).
func (c Config) MinDelay() time.Duration {
	if c.JitterSD <= 0 {
		return c.Base
	}
	return time.Duration(float64(c.Base) * math.Exp(-8*c.JitterSD))
}

// New creates a link drawing jitter from stream.
func New(cfg Config, stream *rng.Stream) (*Link, error) {
	if cfg.Base < 0 || cfg.PerByteNs < 0 || cfg.JitterSD < 0 {
		return nil, fmt.Errorf("netmodel: negative parameter in %+v", cfg)
	}
	return &Link{base: cfg.Base, jitterSD: cfg.JitterSD, perByteNs: cfg.PerByteNs,
		min: cfg.MinDelay(), stream: stream}, nil
}

// SetDegrade installs (or with nil clears) a link-degradation schedule.
// Links are created fresh per run, so the fault-free path never carries
// one.
func (l *Link) SetDegrade(d *faults.LinkSchedule) { l.deg = d }

// Delay returns the one-way delay for a message of the given payload size.
// The result never falls below Config.MinDelay (the clamp fires with
// probability ~1e-15 per draw, so it is unobservable in practice but
// makes the sharding lookahead invariant unconditional).
func (l *Link) Delay(payloadBytes int) time.Duration {
	l.delivered++
	d := l.base + time.Duration(float64(payloadBytes)*l.perByteNs)
	if l.jitterSD > 0 {
		d = time.Duration(float64(d) * l.stream.LogNormal(0, l.jitterSD))
		if d < l.min {
			d = l.min
		}
	}
	return d
}

// DelayAt is Delay evaluated under the degradation schedule at the
// message's entry instant: the jitter draw happens as usual, then the
// window's delay factor (≥ 1) stretches the result. Both execution
// modes evaluate the factor at the same explicit instant, keeping
// sharded runs byte-identical to the single-engine path.
func (l *Link) DelayAt(from sim.Time, payloadBytes int) time.Duration {
	d := l.Delay(payloadBytes)
	if l.deg != nil {
		if f := l.deg.FactorAt(from); f > 1 {
			d = time.Duration(float64(d) * f)
		}
	}
	return d
}

// LostAt reports whether a message entering the link at from is dropped
// by the degradation schedule. The loss draw consumes the link's stream
// only when the instant's loss probability is positive, so fault-free
// runs (and degraded runs outside loss windows) keep their exact stream
// positions. Callers must draw delay first, then loss — both paths
// follow that order.
func (l *Link) LostAt(from sim.Time) bool {
	if l.deg == nil {
		return false
	}
	p := l.deg.LossAt(from)
	if p <= 0 {
		return false
	}
	return l.stream.Float64() < p
}

// batchEntry is one delivery folded into a shared flush event.
type batchEntry struct {
	sink sim.EventSink
	arg  sim.EventArg
}

// deliveryBatch is the payload of one flush event: the deliveries that
// share its (link, deadline), in Deliver-call order.
type deliveryBatch struct {
	entries []batchEntry
}

// Deliver schedules a typed delivery event: a message of payloadBytes
// enters the link at from, and sink.OnEvent(arrival, arg) fires when it
// reaches the far end. The jitter draw happens at scheduling time.
//
// Same-deadline deliveries are batched: when this delivery lands on the
// (deadline, origin) of the link's still-pending flush event AND the
// engine has issued no event sequence numbers since that flush was
// scheduled (engine.Scheduled() unchanged), the delivery rides the
// existing flush instead of costing its own event. The guards make
// batching invisible to execution order: batch members share the
// flush's (deadline, origin) ordering key and would have held exactly
// the sequence numbers after the flush's — no other event's tie-break
// can fall between them — and events scheduled *during* the flush
// dispatch get later numbers than every member, just as they would have
// unbatched. Batched deliveries share the flush's EventID (Cancel
// through it cancels the whole batch; all current call sites ignore the
// return).
func (l *Link) Deliver(engine *sim.Engine, from sim.Time, payloadBytes int, sink sim.EventSink, arg sim.EventArg) sim.EventID {
	return l.DeliverFrom(engine, engine.Now(), from, payloadBytes, sink, arg)
}

// DeliverFrom is Deliver with an explicit schedule origin: the delivery
// event's same-deadline tie-break counts it as scheduled at origin
// (sim.Engine.AtSinkFrom) rather than at the current clock. Deliver
// passes Now() — for it, nothing changes. The sharded response path
// passes the response's departure instant: the single-engine run
// scheduled that delivery (and drew its jitter) at the departure, while
// the sharded run replays it on the owning thread's shard one lookahead
// later, and carrying the original instant restores the single engine's
// exact FIFO slot among equal deadlines.
func (l *Link) DeliverFrom(engine *sim.Engine, origin, from sim.Time, payloadBytes int, sink sim.EventSink, arg sim.EventArg) sim.EventID {
	deadline := from.Add(l.DelayAt(from, payloadBytes))
	if l.LostAt(from) {
		// Dropped by the degradation schedule: the arrival never happens.
		// The caller's resilience timers are what notice.
		return sim.EventID{}
	}
	if l.pendingBatch != nil && l.pendingEngine == engine && l.pendingTime == deadline &&
		l.pendingFrom == origin && engine.Scheduled() == l.pendingSeq && l.pendingID.Valid() {
		l.pendingBatch.entries = append(l.pendingBatch.entries, batchEntry{sink: sink, arg: arg})
		return l.pendingID
	}
	var b *deliveryBatch
	if n := len(l.freeBatches); n > 0 {
		b = l.freeBatches[n-1]
		l.freeBatches = l.freeBatches[:n-1]
	} else {
		b = &deliveryBatch{}
	}
	b.entries = append(b.entries, batchEntry{sink: sink, arg: arg})
	id := engine.AtSinkFrom(origin, deadline, l, sim.EventArg{Ptr: b})
	l.pendingBatch, l.pendingEngine, l.pendingFrom, l.pendingTime = b, engine, origin, deadline
	l.pendingID, l.pendingSeq = id, engine.Scheduled()
	return id
}

// OnEvent fires a flush: it dispatches the batch's deliveries in the
// order Deliver folded them in, then recycles the batch. Link is its own
// sink so batching needs no extra allocation per flush.
func (l *Link) OnEvent(now sim.Time, arg sim.EventArg) {
	b := arg.Ptr.(*deliveryBatch)
	if b == l.pendingBatch {
		l.pendingBatch = nil
	}
	for i := range b.entries {
		b.entries[i].sink.OnEvent(now, b.entries[i].arg)
	}
	for i := range b.entries {
		b.entries[i] = batchEntry{}
	}
	b.entries = b.entries[:0]
	l.freeBatches = append(l.freeBatches, b)
}

// Delivered returns the number of messages carried.
func (l *Link) Delivered() uint64 { return l.delivered }

// Loopback returns a link modelling same-host container-to-container
// communication (the Social Network deployment uses Docker Swarm on a
// single node, §IV-B): ≈15 µs through the loopback/bridge stack.
func Loopback(stream *rng.Stream) *Link {
	l, err := New(Config{Base: 15 * time.Microsecond, JitterSD: 0.10, PerByteNs: 0.5}, stream)
	if err != nil {
		panic(err) // static config cannot fail
	}
	return l
}
