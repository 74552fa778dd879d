package loadgen

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
)

// This file holds what the sharded path adds to RunOnce: with
// Config.Shards > 0 one repetition runs on K per-shard sim.Engines driven
// in parallel by a sim.ShardSet, with the network link's minimum delay as
// conservative lookahead. Setup is not forked: RunOnce builds the same
// threads from the same draws at any K, and only the layout (which worker
// owns a machine), the backend reset and the engine run differ. The
// partition unit is a whole machine — client machines and backend
// replicas each carry machine-local mutable state (cores, DVFS, stores),
// so a machine never straddles shards. Partition p of the M+R-long list
// (client machines 0..M-1, then replicas 0..R-1) runs on shard p mod K.
//
// Cross-shard traffic crosses exactly where the model has a network
// link, so the link delay bounds it below:
//
//   - request:  client shard draws the c2s delay at send and mails the
//     arrival (deadline = sent + delay ≥ now + MinDelay);
//   - response: the replica shard mails an evRespCross hand-off at
//     departed + lookahead, and the thread's shard draws the s2c delay
//     when it fires — so each thread's s2c stream is consumed in
//     departure order, exactly as the single-engine run consumes it.
//
// Byte-identity with the single-engine run rests on four invariants:
// every RNG stream is owned by one shard and consumed in the same order
// the single engine consumes it; the setup draws from the master stream
// in one order shared by both paths; every deferred or cross-shard event
// carries its single-engine schedule instant as its ordering origin
// (sim.Engine.AtSinkFrom / ShardSet.Send), so the engines' (deadline,
// origin, seq) order reproduces the single engine's same-deadline FIFO
// tie-break — the mailed evArrive counts as scheduled at the send-timer
// instant, the evRespCross hand-off and its s2c draw at the departure
// instant — exactly the instants the single engine scheduled them at;
// and measurements are buffered per shard and merged at epoch barriers
// by (receive instant, shard) before replaying into one recorder, so
// order-sensitive reductions (streaming reservoirs) see the
// single-engine sample sequence while no two shards record at one
// instant. Output is byte-identical at the scales the differential
// tests cover (presets of a few hundred samples, a 30K-QPS synthetic
// shape), not at every scale. Two ties break it (ROADMAP open item 1):
//   - hand-off ties: two responses that depart in the same nanosecond
//     schedule their evRespCross hand-offs with equal (deadline,
//     origin) keys, so per-engine seq, which is adoption order, decides
//     whose s2c jitter is drawn first. One same-ns coincidence is
//     enough: 8 of the benchmark's 12 fleet runs differ between K=0
//     and K=2;
//   - record-merge ties: two shards that record at the same receive
//     instant are replayed in shard order, not in the single engine's
//     order, which moves a streaming (order-sensitive) mean.

// ShardedBackend is the optional services.Backend extension the sharded
// path needs from a partitioned (replicated) backend. cluster.ReplicaSet
// implements it; plain single-instance backends don't and are placed on
// one shard whole.
type ShardedBackend interface {
	services.Backend
	// ShardPartitions returns the backend's partition count (replicas).
	ShardPartitions() int
	// ShardRoute picks and records (req.Replica) the serving replica at
	// send time. It must be safe to call from any shard's worker: routing
	// must be a pure function of the request and run-scoped read-only
	// state (consistent hashing qualifies; cursor- or load-based policies
	// do not).
	ShardRoute(req *services.Request) int
	// ArriveRouted delivers a request to the replica ShardRoute picked,
	// on that replica's own shard.
	ArriveRouted(req *services.Request, now sim.Time)
	// ResetRunSharded is ResetRun with per-replica engines: replica i
	// lives on engines[shardOf[i]]. It must consume stream exactly as
	// ResetRun would, and reject configurations whose routing or control
	// loops cannot run partitioned.
	ResetRunSharded(engines []*sim.Engine, shardOf []int, stream *rng.Stream) error
}

// shardRecord is one buffered measurement awaiting the epoch merge.
type shardRecord struct {
	at       sim.Time // the evReceive instant: the global replay-order key
	done     sim.Time // the in-app measurement timestamp (warmup cutoff key)
	lat, lag time.Duration
}

// shardedRun is one repetition's shard layout and the state the K
// workers share.
type shardedRun struct {
	set     *sim.ShardSet
	workers []*run // one per shard; workers[i] handles every event on shard i
	// threadShard maps thread id → shard (all threads of a machine map
	// to the machine's shard).
	threadShard []int
	// cluster is the partitioned backend (nil for a single-instance
	// backend, which lives whole on backendShard).
	cluster      ShardedBackend
	replicaShard []int
	backendShard int
	lookahead    time.Duration
	// heads[i] is the merge cursor into workers[i].buf.
	heads []int
}

// newShardedRun lays a repetition out over g's K engines: partition p of
// the M+R list runs on shard p mod K, and every thread on its machine's
// shard. It draws nothing from the run stream, and returns nil on the
// single-engine path.
func (g *Generator) newShardedRun() (*shardedRun, error) {
	if g.set == nil {
		return nil, nil
	}
	k, m, tpm := len(g.engines), g.cfg.Machines, g.cfg.ThreadsPerMachine
	cb, _ := g.backend.(ShardedBackend)
	partitions := m + 1
	if cb != nil {
		partitions = m + cb.ShardPartitions()
	}
	if k > partitions {
		return nil, fmt.Errorf("loadgen: %d shards exceed the %d machine+replica partitions", k, partitions)
	}
	sr := &shardedRun{
		set:          g.set,
		threadShard:  make([]int, m*tpm),
		cluster:      cb,
		backendShard: m % k,
		lookahead:    g.cfg.Net.MinDelay(),
		heads:        make([]int, k),
	}
	for i := range sr.threadShard {
		sr.threadShard[i] = (i / tpm) % k
	}
	if cb != nil {
		sr.replicaShard = make([]int, cb.ShardPartitions())
		for i := range sr.replicaShard {
			sr.replicaShard[i] = (m + i) % k
		}
	}
	return sr, nil
}

// resetBackend resets the service onto the run's engines: onto the one
// engine, onto the shard that owns a single-instance backend, or replica
// by replica onto their shards. Each form draws one split of stream at
// the same point of the setup.
func (g *Generator) resetBackend(sr *shardedRun, stream *rng.Stream) error {
	switch {
	case sr == nil:
		g.backend.ResetRun(g.engines[0], stream.Split())
	case sr.cluster != nil:
		return sr.cluster.ResetRunSharded(g.engines, sr.replicaShard, stream.Split())
	default:
		g.backend.ResetRun(g.engines[sr.backendShard], stream.Split())
	}
	return nil
}

// deliverArrive routes a freshly sent request: pick the replica (fixing
// the destination shard), install the completion sink of the replica's
// shard, and deliver across the c2s link — locally when the replica
// shares the sender's shard, through the shard mailbox otherwise. The
// transit draws (Link.Transit) happen here either way, on the sending
// thread's stream in send order, exactly like the single-engine path.
func (sr *shardedRun) deliverArrive(w *run, th *thread, req *services.Request, sent sim.Time, reqBytes int) {
	dst := sr.backendShard
	if sr.cluster != nil {
		if rep := sr.cluster.ShardRoute(req); rep >= 0 {
			dst = sr.replicaShard[rep]
		} else {
			// No healthy replica at send time: the "arrival" (the load
			// balancer's error) fires on the sender's own shard, after the
			// same c2s delay draw the single-engine path consumes.
			dst = w.shard
		}
	}
	wd := sr.workers[dst]
	req.SetCompletionSink(wd)
	arrival, lost := th.c2s.Transit(sent, reqBytes)
	if lost {
		return // dropped on the wire; the sender's timeout notices
	}
	arg := sim.EventArg{Ptr: req, U64: evArrive}
	if dst == w.shard {
		w.engine.AtSink(arrival, wd, arg)
		return
	}
	sr.set.Send(w.shard, dst, w.engine.Now(), arrival, wd, arg)
}

// completeSharded runs on the replica's shard when the response leaves
// the server: hand the request to the owning thread's shard at
// departed + lookahead (the earliest instant any response could reach
// the client anyway). Local completions take the same hand-off so a
// thread's responses are processed strictly in departure order no matter
// which shards its replicas live on.
func (sr *shardedRun) completeSharded(w *run, req *services.Request, departed sim.Time) {
	dst := sr.threadShard[req.Thread]
	deadline := departed.Add(sr.lookahead)
	arg := sim.EventArg{Ptr: req, U64: evRespCross | uint64(departed.Sub(sim.Time(0)))<<evKindBits}
	if dst == w.shard {
		w.engine.AtSink(deadline, sr.workers[dst], arg)
		return
	}
	sr.set.Send(w.shard, dst, departed, deadline, sr.workers[dst], arg)
}

// mergeRecords is the epoch hook: replay every buffered measurement
// below the watermark into the run's recorder, in (receive instant,
// shard) order — the order the single engine would have recorded them.
// It runs on worker 0 with all shards quiescent below the watermark; the
// barrier's happens-before edges make the cross-shard buffer reads (and
// the cursor writes the next epoch's appends follow) race-free.
func (sr *shardedRun) mergeRecords(watermark sim.Time) {
	rec := sr.workers[0].rec
	for {
		best := -1
		for i, w := range sr.workers {
			h := sr.heads[i]
			if h == len(w.buf) || w.buf[h].at >= watermark {
				continue
			}
			if best < 0 || w.buf[h].at < sr.workers[best].buf[sr.heads[best]].at {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := sr.workers[best].buf[sr.heads[best]]
		sr.heads[best]++
		rec.record(e.done, e.lat, e.lag)
	}
	// Compact consumed prefixes so buffers stay small: only records at or
	// above the watermark (few — they are within one epoch window of the
	// horizon) are retained.
	for i, w := range sr.workers {
		if h := sr.heads[i]; h > 0 {
			n := copy(w.buf, w.buf[h:])
			w.buf = w.buf[:n]
			sr.heads[i] = 0
		}
	}
}
