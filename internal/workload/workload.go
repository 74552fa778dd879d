// Package workload models the request populations the paper's generators
// replay: the Facebook ETC key-value workload for Memcached (Atikoglu et
// al., SIGMETRICS'12 [5], the workload Mutilate is configured to recreate,
// §IV-B), feature-vector queries for HDSearch, read-user-timeline requests
// for Social Network, and the tunable-delay synthetic workload. It also
// provides the inter-arrival time distributions (the paper's "load
// intensity") and Little's-law helpers used to size experiments (§V-B).
package workload

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/rng"
)

// Op is a key-value operation type.
type Op int

const (
	OpGet Op = iota
	OpSet
)

func (o Op) String() string {
	if o == OpGet {
		return "GET"
	}
	return "SET"
}

// KVRequest is one generated key-value request. Its key is a pure
// function of its rank, AppendKey(dst, Rank), KeyBytes long; a request
// carries only the rank, and the consistent-hash router rebuilds the key
// bytes to hash them.
type KVRequest struct {
	Op        Op
	Rank      int // popularity rank: the Memcached store's item ID
	ValueSize int // bytes; 0 for GET
}

// KeyBytes is the length of every ETC key: "etc-" and 12 decimal digits.
const KeyBytes = 16

// maxKeys is the largest key space whose ranks AppendKey writes in 12
// digits.
const maxKeys = 1_000_000_000_000

// digitPairs holds the two-digit decimal strings "00" to "99" back to
// back: entry i is at [2i, 2i+2).
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// AppendKey appends the ETC key of rank, the bytes fmt.Sprintf("etc-%012d",
// rank) formats, to dst and returns the extended slice. It appends a
// template key, then overwrites the rank's three 4-digit groups in
// place, two digits per table load. Writing the digits into an array
// and appending that instead doubled the time to hash a key: the copy's
// wide load cannot be forwarded from the narrow digit stores. A rank
// outside [0, 10¹²), which no source with a valid ETCConfig draws,
// indexes past digitPairs and panics.
func AppendKey(dst []byte, rank int) []byte {
	r := uint64(rank)
	dst = append(dst, "etc-000000000000"...)
	k := dst[len(dst)-12:]
	putDigits4(k[0:4], r/1e8)
	putDigits4(k[4:8], r/1e4%1e4)
	putDigits4(k[8:12], r%1e4)
	return dst
}

// putDigits4 writes g < 10⁴ as four decimal digits into b.
func putDigits4(b []byte, g uint64) {
	hi, lo := g/100*2, g%100*2
	_ = b[3]
	b[0], b[1], b[2], b[3] = digitPairs[hi], digitPairs[hi+1], digitPairs[lo], digitPairs[lo+1]
}

// ETCConfig parameterizes the ETC workload model. The constants follow the
// published characterization: small keys (16–250 B, mostly 20–45 B),
// generalized-Pareto value sizes, a ~30:1 GET:SET ratio, and a Zipfian
// popularity skew.
type ETCConfig struct {
	Keys       int     // key-space size
	GetRatio   float64 // fraction of GETs (ETC: ≈0.97)
	ZipfAlpha  float64 // popularity skew (≈0.99 for caching workloads)
	ValueScale float64 // GPD σ for value sizes (ETC: 214.476)
	ValueShape float64 // GPD k for value sizes (ETC: 0.348238)
}

// DefaultETCConfig returns the ETC parameters from the SIGMETRICS'12
// characterization with a 1M-key space.
func DefaultETCConfig() ETCConfig {
	return ETCConfig{
		Keys:       1 << 20,
		GetRatio:   0.967,
		ZipfAlpha:  0.99,
		ValueScale: 214.476,
		ValueShape: 0.348238,
	}
}

// Validate reports configuration errors.
func (c ETCConfig) Validate() error {
	if c.Keys < 1 || uint64(c.Keys) > maxKeys {
		return fmt.Errorf("workload: key space must be in [1, 10¹²], got %d", c.Keys)
	}
	if c.GetRatio < 0 || c.GetRatio > 1 {
		return fmt.Errorf("workload: GET ratio %v outside [0,1]", c.GetRatio)
	}
	if !(c.ZipfAlpha > 0) { // NaN too: it could never hit the rank-table cache
		return fmt.Errorf("workload: Zipf alpha must be positive, got %v", c.ZipfAlpha)
	}
	return nil
}

// Shared popularity tables. The Zipf rank sampler is a pure function of
// (key space, skew) and immutable once built, so every ETC source in the
// process draws through one table per pair. A table costs n powers and an
// n-entry CDF, and every generator thread builds a source at every run
// start. The lock is held across a build so concurrent first callers wait
// for one table rather than each building a duplicate.
var (
	rankTablesMu sync.Mutex
	rankTables   = map[rankKey]*rng.Discrete{}
)

type rankKey struct {
	keys  int
	alpha float64
}

// etcRanks returns the shared rank sampler for keys ranks at skew alpha,
// building it on first use.
func etcRanks(keys int, alpha float64) *rng.Discrete {
	rankTablesMu.Lock()
	defer rankTablesMu.Unlock()
	k := rankKey{keys, alpha}
	t, ok := rankTables[k]
	if !ok {
		t = rng.NewZipf(keys, alpha)
		rankTables[k] = t
	}
	return t
}

// ETC draws requests following the ETC model. Not safe for concurrent use;
// derive one per generator connection group.
//
// A source owns its stream and draws 16 requests at a time
// (requestChunk) in one loop, handing them out in order. Each request is the one a draw
// per Next would give, and the rank draws of a chunk, each a guide-table
// and CDF load from the shared Zipf table, overlap their cache misses
// instead of paying one inside every request's event.
type ETC struct {
	cfg    ETCConfig
	stream *rng.Stream
	ranks  *rng.Discrete // shared Zipf popularity table (etcRanks)
	next   int           // reqs[next:] are unused
	reqs   [requestChunk]KVRequest
}

// requestChunk is the number of requests an ETC source draws at once.
const requestChunk = 16

// NewETC builds an ETC request source. Its rank table is the
// process-wide shared one, so building a source costs no table work. The
// source draws from stream alone, and ahead of its calls to Next, so
// nothing else may draw from stream.
func NewETC(cfg ETCConfig, stream *rng.Stream) (*ETC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ETC{cfg: cfg, stream: stream, ranks: etcRanks(cfg.Keys, cfg.ZipfAlpha), next: requestChunk}, nil
}

// Next returns the next request. Each request draws its rank, then the
// GET/SET coin, then a SET's value size. Drawing a request allocates
// nothing.
func (e *ETC) Next() KVRequest {
	if e.next == requestChunk {
		for i := range e.reqs {
			rank := e.ranks.Draw(e.stream)
			if e.stream.Float64() < e.cfg.GetRatio {
				e.reqs[i] = KVRequest{Op: OpGet, Rank: rank}
			} else {
				e.reqs[i] = KVRequest{Op: OpSet, Rank: rank, ValueSize: e.cfg.ValueSize(e.stream)}
			}
		}
		e.next = 0
	}
	r := e.reqs[e.next]
	e.next++
	return r
}

// ValueSize draws a value size in bytes from s under the
// generalized-Pareto ETC model, clamped to [1 B, 1 MiB] (memcached's item
// limit). It draws one uniform.
func (c ETCConfig) ValueSize(s *rng.Stream) int {
	v := s.GeneralizedPareto(0, c.ValueScale, c.ValueShape)
	size := int(v) + 1
	if size < 1 {
		size = 1
	}
	if size > 1<<20 {
		size = 1 << 20
	}
	return size
}

// MeanValueSize returns the expected value size in bytes under the
// configuration's generalized-Pareto model: E[GPD(0, σ, k)] = σ/(1−k)
// for k < 1, plus the +1 the draw in ValueSize applies. The [1 B, 1 MiB]
// clamp is ignored (its probability mass is negligible at the ETC
// parameters). For the published ETC constants this is ≈330 B — the mean
// response payload behind Memcached's calibrated ~10 µs service time.
func (c ETCConfig) MeanValueSize() float64 {
	if c.ValueShape >= 1 {
		return math.Inf(1) // heavy-tailed beyond a finite mean
	}
	return c.ValueScale/(1-c.ValueShape) + 1
}

// Interarrival produces the time between successive requests — the paper's
// "load intensity" dimension of a workload generator (§II).
type Interarrival interface {
	// Next returns the gap before the next request.
	Next() time.Duration
	// Rate returns the nominal request rate in requests/second.
	Rate() float64
}

// exponentialArrivals models a Poisson arrival process (open-loop
// generators in the paper: Mutilate, the HDSearch client, wrk2). It owns
// its stream and draws 32 gaps at a time (gapChunk, rng.Stream.FillExp),
// handing them out in order: each gap is the one an Exp draw per Next
// would give.
type exponentialArrivals struct {
	rate   float64
	stream *rng.Stream
	next   int // gaps[next:] are unused
	gaps   [gapChunk]float64
}

// gapChunk is the number of Poisson gaps an arrival source draws at once.
const gapChunk = 32

// NewExponentialArrivals returns Poisson arrivals at the given rate (QPS).
// The source draws from stream alone, and ahead of its calls to Next, so
// nothing else may draw from stream.
func NewExponentialArrivals(rate float64, stream *rng.Stream) (Interarrival, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	return &exponentialArrivals{rate: rate, stream: stream, next: gapChunk}, nil
}

func (e *exponentialArrivals) Next() time.Duration {
	if e.next == gapChunk {
		e.stream.FillExp(e.gaps[:], e.rate)
		e.next = 0
	}
	g := e.gaps[e.next]
	e.next++
	return time.Duration(g * float64(time.Second))
}

func (e *exponentialArrivals) Rate() float64 { return e.rate }

// fixedArrivals emits requests at exact intervals (deterministic pacing).
type fixedArrivals struct {
	interval time.Duration
}

// NewFixedArrivals returns deterministic arrivals at the given rate (QPS).
func NewFixedArrivals(rate float64) (Interarrival, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	return &fixedArrivals{interval: time.Duration(float64(time.Second) / rate)}, nil
}

func (f *fixedArrivals) Next() time.Duration { return f.interval }
func (f *fixedArrivals) Rate() float64       { return float64(time.Second) / float64(f.interval) }

// LittleLawConcurrency returns the mean number of in-flight requests for an
// open system with arrival rate λ (QPS) and mean residence time W — the
// L = λ·W rule the paper uses to choose synthetic-workload QPS values where
// concurrency stays below the worker count (§V-B).
func LittleLawConcurrency(rate float64, meanResidence time.Duration) float64 {
	return rate * meanResidence.Seconds()
}

// MaxRateForConcurrency inverts Little's law: the largest arrival rate that
// keeps mean concurrency at or below maxConcurrency.
func MaxRateForConcurrency(maxConcurrency float64, meanResidence time.Duration) float64 {
	if meanResidence <= 0 {
		return math.Inf(1)
	}
	return maxConcurrency / meanResidence.Seconds()
}

// Utilization returns offered utilization λ·S/k for arrival rate λ, mean
// service time S and k servers — the 5 %–55 % figures the paper quotes for
// the Memcached sweeps.
func Utilization(rate float64, meanService time.Duration, servers int) float64 {
	if servers <= 0 {
		return math.Inf(1)
	}
	return rate * meanService.Seconds() / float64(servers)
}
