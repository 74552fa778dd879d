package cluster

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/workload"
)

// Router policy names accepted by NewRouter and the CLIs' -router flag.
const (
	RouterRoundRobin       = "round-robin"
	RouterLeastOutstanding = "least-outstanding"
	RouterConsistentHash   = "consistent-hash"
)

// Router picks the replica that serves a request. Implementations are
// deterministic: a run's routing decisions are a pure function of the
// request sequence and the stream handed to Reset, and Pick never
// allocates (it sits on the per-request hot path).
type Router interface {
	// Name returns the policy name (one of the Router* constants).
	Name() string
	// Reset clears run-scoped state. The stream is the router's labeled
	// per-run randomness source; policies that need no randomness ignore
	// it, but must still accept it so every policy is reset the same way.
	Reset(stream *rng.Stream)
	// Resize informs the router that replicas [0, active) are in
	// rotation. Called after Reset and after every autoscaler decision.
	Resize(active int)
	// Pick returns the replica index in [0, len(outstanding)) for req.
	// outstanding[i] is replica i's in-flight request count; the slice
	// covers exactly the active replicas.
	Pick(req *services.Request, outstanding []int) int
	// PickHealthy is Pick under a fault schedule: replicas that sched
	// reports down at the request's send instant (req.SentAt) are skipped,
	// as is the hedge-avoid replica req.Avoid-1 when set. It returns -1
	// when no active replica qualifies. Health is read through the pure
	// schedule at SentAt — not through mutable crash flags — so the
	// single-engine and sharded paths, which route at different wall
	// points of the same virtual instant, make identical decisions.
	PickHealthy(req *services.Request, outstanding []int, sched *faults.Schedule) int
}

// NewRouter builds the named routing policy. An empty name selects
// round-robin.
func NewRouter(name string) (Router, error) {
	switch name {
	case "", RouterRoundRobin:
		return &roundRobin{}, nil
	case RouterLeastOutstanding:
		return &leastOutstanding{}, nil
	case RouterConsistentHash:
		return &consistentHash{vnodes: defaultVnodes}, nil
	}
	return nil, fmt.Errorf("cluster: unknown router %q (want %s, %s or %s)",
		name, RouterRoundRobin, RouterLeastOutstanding, RouterConsistentHash)
}

// roundRobin cycles through the active replicas in order — the classic
// L4 load-balancer default. Perfectly balanced offered load, blind to
// per-replica backlog.
type roundRobin struct {
	cursor int
}

func (r *roundRobin) Name() string      { return RouterRoundRobin }
func (r *roundRobin) Reset(*rng.Stream) { r.cursor = 0 }
func (r *roundRobin) Resize(int)        {}
func (r *roundRobin) Pick(_ *services.Request, outstanding []int) int {
	i := r.cursor % len(outstanding)
	r.cursor++
	return i
}

// PickHealthy advances the cursor past down/avoided replicas, trying at
// most one full rotation. The cursor moves for every slot examined, so a
// crash window shifts the rotation phase identically on both execution
// paths (the examined sequence depends only on prior picks, not on when
// within the virtual instant the routing ran).
func (r *roundRobin) PickHealthy(req *services.Request, outstanding []int, sched *faults.Schedule) int {
	n := len(outstanding)
	for try := 0; try < n; try++ {
		i := r.cursor % n
		r.cursor++
		if i == req.Avoid-1 || sched.ReplicaDown(i, req.SentAt) {
			continue
		}
		return i
	}
	return -1
}

// leastOutstanding sends each request to the replica with the fewest
// in-flight requests (lowest index wins ties) — the "least connections"
// policy, which absorbs per-replica slowdowns at the cost of cache
// affinity.
type leastOutstanding struct{}

func (r *leastOutstanding) Name() string      { return RouterLeastOutstanding }
func (r *leastOutstanding) Reset(*rng.Stream) {}
func (r *leastOutstanding) Resize(int)        {}
func (r *leastOutstanding) Pick(_ *services.Request, outstanding []int) int {
	best := 0
	for i := 1; i < len(outstanding); i++ {
		if outstanding[i] < outstanding[best] {
			best = i
		}
	}
	return best
}

// PickHealthy is the least-connections scan restricted to replicas that
// are up at the request's send instant (lowest index still wins ties).
func (r *leastOutstanding) PickHealthy(req *services.Request, outstanding []int, sched *faults.Schedule) int {
	best := -1
	for i := 0; i < len(outstanding); i++ {
		if i == req.Avoid-1 || sched.ReplicaDown(i, req.SentAt) {
			continue
		}
		if best < 0 || outstanding[i] < outstanding[best] {
			best = i
		}
	}
	return best
}

// defaultVnodes is the virtual-node count per replica on the consistent-
// hash ring. 64 keeps the expected per-replica share imbalance from ring
// geometry a few percent — small against the key-popularity skew the
// policy is meant to expose.
const defaultVnodes = 64

// consistentHash routes by the request's KV key on a hash ring, so a key
// always lands on the same replica while it stays in rotation — the
// cache-affinity sharding of memcached client libraries. Under a Zipfian
// key popularity (the ETC trace) the hottest keys concentrate on single
// replicas, which is exactly the load-balance skew the cluster figure
// measures. Requests without a KV body fall back to hashing the
// connection ID, preserving connection affinity.
type consistentHash struct {
	vnodes int
	salt   uint64
	active int
	ring   []ringEntry // sorted by point
}

type ringEntry struct {
	point   uint64
	replica int
}

func (r *consistentHash) Name() string { return RouterConsistentHash }

// Reset draws the run's ring salt. The ring itself is (re)built by the
// Resize that follows.
func (r *consistentHash) Reset(stream *rng.Stream) {
	r.salt = stream.Uint64()
	r.active = 0
	r.ring = r.ring[:0]
}

// Resize rebuilds the ring for replicas [0, active). Because every
// replica's virtual nodes hash to the same points for a given salt,
// adding or removing the highest replica only moves the keys that land
// on its own arcs — the consistent-hashing stability property the
// cluster tests pin.
func (r *consistentHash) Resize(active int) {
	if active == r.active {
		return
	}
	r.active = active
	r.ring = r.ring[:0]
	for rep := 0; rep < active; rep++ {
		for v := 0; v < r.vnodes; v++ {
			r.ring = append(r.ring, ringEntry{point: mix64(r.salt ^ uint64(rep)<<20 ^ uint64(v)), replica: rep})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].point < r.ring[j].point })
}

func (r *consistentHash) Pick(req *services.Request, outstanding []int) int {
	return r.ring[r.search(req, len(outstanding))].replica
}

// PickHealthy walks the ring forward from the key's position, wrapping
// at the top, until it finds a replica that is up at the request's send
// instant and not hedge-avoided — the standard consistent-hashing
// failover: keys owned by a dark replica spill onto the next arcs, and
// every other key keeps its owner. Returns -1 when the whole ring is
// dark.
func (r *consistentHash) PickHealthy(req *services.Request, outstanding []int, sched *faults.Schedule) int {
	lo := r.search(req, len(outstanding))
	for walked := 0; walked < len(r.ring); walked++ {
		rep := r.ring[lo].replica
		if rep != req.Avoid-1 && !sched.ReplicaDown(rep, req.SentAt) {
			return rep
		}
		if lo++; lo == len(r.ring) {
			lo = 0
		}
	}
	return -1
}

// search returns the index of the first ring point at or after req's
// hash, wrapping at the top, on a ring of active replicas. A KV request
// hashes its key (rankHash); any other request hashes its connection ID.
func (r *consistentHash) search(req *services.Request, active int) int {
	if len(r.ring) == 0 || r.active != active {
		// Defensive: the ReplicaSet always Resizes before routing.
		r.Resize(active)
	}
	var kh uint64
	if req.HasKV {
		kh = rankHash(r.salt, req.KV.Rank)
	} else {
		kh = mix64(r.salt ^ 0x636f6e6e ^ uint64(req.Conn))
	}
	lo, hi := 0, len(r.ring)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.ring[mid].point < kh {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.ring) {
		lo = 0
	}
	return lo
}

// rankHash is FNV-1a over the ETC key of rank, salted per run. The key's
// bytes are rebuilt from the rank in a stack buffer.
func rankHash(salt uint64, rank int) uint64 {
	var buf [workload.KeyBytes]byte
	h := uint64(14695981039346656037) ^ salt
	for _, c := range workload.AppendKey(buf[:0], rank) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer — a cheap high-quality 64-bit mixer
// for ring points and fallback hashes.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
