// Package netmodel models the network path between client and server
// machines in the test cluster: a fixed propagation+switching base latency
// with small lognormal jitter, plus a serialization term proportional to
// message size.
//
// A link owns its stream and draws its jitter ahead, 32 multipliers at
// a time (rng.Stream.FillLogNormal), handing them out in order, so every
// delay is the one a draw per message would give. A link
// with a fault schedule (SetDegrade) draws one multiplier per message
// instead: inside a loss window its loss draws come from the same stream,
// between the jitter draws, and a chunk drawn ahead would take their
// place.
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

	// jitter holds multipliers drawn ahead; jitter[next:] are unused.
	// Only a link without a schedule fills it.
	next   int
	jitter [jitterChunk]float64
}

// jitterChunk is the number of jitter multipliers a link draws at once.
const jitterChunk = 32

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
		min: cfg.MinDelay(), stream: stream, next: jitterChunk}, nil
}

// SetDegrade installs (or with nil clears) a link-degradation schedule.
// Links are created fresh per run, so the fault-free path never carries
// one. It must come before the link's first delay: a link that has drawn
// jitter ahead cannot give the draws back, and SetDegrade panics.
func (l *Link) SetDegrade(d *faults.LinkSchedule) {
	if l.next != jitterChunk {
		panic("netmodel: SetDegrade after the link drew jitter ahead")
	}
	l.deg = d
}

// Delay returns the one-way delay for a message of the given payload size.
// The result never falls below Config.MinDelay (the clamp fires with
// probability ~1e-15 per draw, so it is unobservable in practice but
// makes the sharding lookahead invariant unconditional).
func (l *Link) Delay(payloadBytes int) time.Duration {
	l.delivered++
	d := l.base + time.Duration(float64(payloadBytes)*l.perByteNs)
	if l.jitterSD > 0 {
		d = time.Duration(float64(d) * l.jitterMul())
		if d < l.min {
			d = l.min
		}
	}
	return d
}

// jitterMul returns the next jitter multiplier, LogNormal(0, JitterSD):
// from the chunk drawn ahead, refilled when spent, or one draw at a time
// on a link with a schedule.
func (l *Link) jitterMul() float64 {
	if l.deg != nil {
		return l.stream.LogNormal(0, l.jitterSD)
	}
	if l.next == jitterChunk {
		l.stream.FillLogNormal(l.jitter[:], 0, l.jitterSD)
		l.next = 0
	}
	m := l.jitter[l.next]
	l.next++
	return m
}

// Transit draws a message's passage through the link: it enters at from
// with payloadBytes of payload, and Transit returns the instant it
// reaches the far end and whether the degradation schedule drops it on
// the way. Every delivery path draws through it, in one order: the
// jitter (Delay), stretched by the schedule's delay factor at from (≥ 1,
// so MinDelay still bounds the result), then the loss. The loss draw
// consumes the link's stream only when the loss probability at from is
// positive, so fault-free runs, and degraded runs outside loss windows,
// keep their exact stream positions. Both execution modes evaluate the
// schedule at the same explicit instant, keeping sharded runs
// byte-identical to the single-engine path.
func (l *Link) Transit(from sim.Time, payloadBytes int) (arrival sim.Time, lost bool) {
	d := l.Delay(payloadBytes)
	if l.deg == nil {
		return from.Add(d), false
	}
	if f := l.deg.FactorAt(from); f > 1 {
		d = time.Duration(float64(d) * f)
	}
	if p := l.deg.LossAt(from); p > 0 {
		lost = l.stream.Float64() < p
	}
	return from.Add(d), lost
}

// Deliver schedules a typed delivery event: a message of payloadBytes
// enters the link at from, and sink.OnEvent(arrival, arg) fires when it
// reaches the far end. The jitter and loss draws (Transit) happen at
// scheduling time. Each delivery is one engine event, so deliveries that
// share a deadline fire in Deliver-call order, like any same-deadline
// events. A lost message schedules nothing and returns the zero
// EventID.
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
	arrival, lost := l.Transit(from, payloadBytes)
	if lost {
		// Dropped by the degradation schedule: the arrival never happens.
		// The caller's resilience timers are what notice.
		return sim.EventID{}
	}
	return engine.AtSinkFrom(origin, arrival, sink, arg)
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
