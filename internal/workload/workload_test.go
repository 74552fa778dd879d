package workload

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

func newETC(t *testing.T, seed uint64) *ETC {
	t.Helper()
	e, err := NewETC(DefaultETCConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestETCGetSetRatio(t *testing.T) {
	e := newETC(t, 1)
	gets := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if e.Next().Op == OpGet {
			gets++
		}
	}
	ratio := float64(gets) / n
	if math.Abs(ratio-0.967) > 0.01 {
		t.Errorf("GET ratio = %v, want ≈0.967 (ETC)", ratio)
	}
}

func TestETCPopularitySkew(t *testing.T) {
	e := newETC(t, 2)
	counts := make(map[string]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[string(AppendKey(nil, e.Next().Rank))]++
	}
	// Hot key dominates: rank 0 should be far above a uniform share.
	hot := counts["etc-000000000000"]
	uniform := float64(n) / float64(DefaultETCConfig().Keys)
	if float64(hot) < 100*uniform {
		t.Errorf("hot-key count %d not Zipf-skewed (uniform share %.2f)", hot, uniform)
	}
}

// TestETCKeyIsRankKey pins the rank↔key invariant the Memcached store
// and the routers rely on (the store is addressed by Rank while routers
// hash the key): every draw, GET and SET, carries a rank inside the key
// space whose key, AppendKey's bytes, is fmt.Sprintf("etc-%012d", Rank).
// It also replays each draw from a second stream in the documented order
// (rank, then the GET/SET coin, then a SET's value size), so a change to
// that order or to the rank a draw reports fails here.
func TestETCKeyIsRankKey(t *testing.T) {
	cfg := DefaultETCConfig()
	cfg.Keys = 5000
	e, err := NewETC(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ref := rng.New(7)
	ops := map[Op]int{}
	var buf []byte
	for i := 0; i < 20000; i++ {
		r := e.Next()
		if r.Rank < 0 || r.Rank >= cfg.Keys {
			t.Fatalf("draw %d: %v rank %d outside [0, %d)", i, r.Op, r.Rank, cfg.Keys)
		}
		if buf = AppendKey(buf[:0], r.Rank); string(buf) != fmt.Sprintf("etc-%012d", r.Rank) {
			t.Fatalf("draw %d: %v key %q carries rank %d", i, r.Op, buf, r.Rank)
		}
		want := KVRequest{Rank: e.ranks.Draw(ref)}
		if ref.Float64() >= cfg.GetRatio {
			want.Op, want.ValueSize = OpSet, cfg.ValueSize(ref)
		}
		if r != want {
			t.Fatalf("draw %d = %+v, replay %+v", i, r, want)
		}
		ops[r.Op]++
	}
	if ops[OpGet] == 0 || ops[OpSet] == 0 {
		t.Fatalf("draws covered %v, want both GETs and SETs", ops)
	}
}

// TestETCNextMatchesScalarDrawsAcrossChunks checks the requests an ETC
// source draws ahead against a twin stream drawing each request's rank,
// GET/SET coin and a SET's value size in turn, over three chunks and
// one more request. Half the requests are SETs, so chunks consume
// different numbers of uniforms. After the last request the source's
// stream sits where drawing out the fourth chunk leaves the twin.
func TestETCNextMatchesScalarDrawsAcrossChunks(t *testing.T) {
	cfg := DefaultETCConfig()
	cfg.GetRatio = 0.5
	e, err := NewETC(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	twin := rng.New(9)
	scalar := func() KVRequest {
		r := KVRequest{Op: OpGet, Rank: e.ranks.Draw(twin)}
		if twin.Float64() >= cfg.GetRatio {
			r.Op, r.ValueSize = OpSet, cfg.ValueSize(twin)
		}
		return r
	}
	const n = 3*requestChunk + 1
	for i := 0; i < n; i++ {
		if got, want := e.Next(), scalar(); got != want {
			t.Fatalf("request %d = %+v, one draw at a time gives %+v", i, got, want)
		}
	}
	for i := n; i < 4*requestChunk; i++ {
		scalar()
	}
	if *e.stream != *twin {
		t.Fatal("after 3 chunks and one request the stream is not where 4 chunks of scalar draws leave it")
	}
}

func TestETCValueSizes(t *testing.T) {
	cfg, s := DefaultETCConfig(), rng.New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := cfg.ValueSize(s)
		if v < 1 || v > 1<<20 {
			t.Fatalf("value size %d out of [1, 1MiB]", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	// GPD(0, 214.476, 0.348) has mean σ/(1−k) ≈ 329 B.
	if mean < 250 || mean > 450 {
		t.Errorf("mean value size = %v B, want ≈330 B (ETC)", mean)
	}
}

func TestETCMeanValueSize(t *testing.T) {
	cfg := DefaultETCConfig()
	// Analytic value: σ/(1−k) + 1 for the published ETC constants.
	want := cfg.ValueScale/(1-cfg.ValueShape) + 1
	if got := cfg.MeanValueSize(); got != want {
		t.Errorf("MeanValueSize = %v, want %v", got, want)
	}
	if got := cfg.MeanValueSize(); got < 329 || got > 331 {
		t.Errorf("MeanValueSize = %v B, want ≈330 B (ETC)", got)
	}

	// The analytic mean must agree with the empirical draw it models.
	s := rng.New(17)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(cfg.ValueSize(s))
	}
	empirical := sum / n
	if math.Abs(empirical-cfg.MeanValueSize())/cfg.MeanValueSize() > 0.05 {
		t.Errorf("empirical mean %v differs from analytic %v by >5%%", empirical, cfg.MeanValueSize())
	}

	// A shape ≥ 1 has no finite mean.
	cfg.ValueShape = 1
	if !math.IsInf(cfg.MeanValueSize(), 1) {
		t.Errorf("MeanValueSize with shape 1 = %v, want +Inf", cfg.MeanValueSize())
	}
}

// TestETCKeySizes checks that every drawn key is KeyBytes long, inside
// ETC's published key-size range [16, 250], across the default key
// space.
func TestETCKeySizes(t *testing.T) {
	if KeyBytes < 16 || KeyBytes > 250 {
		t.Fatalf("KeyBytes = %d, outside ETC's key-size range [16, 250]", KeyBytes)
	}
	e := newETC(t, 4)
	var buf []byte
	for i := 0; i < 10000; i++ {
		r := e.Next()
		if buf = AppendKey(buf[:0], r.Rank); len(buf) != KeyBytes {
			t.Fatalf("rank %d key %q is %d bytes, want %d", r.Rank, buf, len(buf), KeyBytes)
		}
	}
}

// TestAppendKeyFormatsRank checks AppendKey against fmt at the rank
// boundaries where a digit group fills or carries, up to the largest
// rank a valid key space holds, and that it appends after dst's bytes.
// A rank past that, or below zero, panics.
func TestAppendKeyFormatsRank(t *testing.T) {
	for _, rank := range []int{0, 1, 9, 10, 99, 100, 9_999, 10_000, 99_999, 100_000,
		99_999_999, 100_000_000, 123_456_789_012, 100_000_000_000, 999_999_999_999} {
		if got, want := string(AppendKey([]byte("k:"), rank)), fmt.Sprintf("k:etc-%012d", rank); got != want {
			t.Errorf("AppendKey(%d) = %q, want %q", rank, got, want)
		}
	}
	for _, rank := range []int{-1, 1_000_000_000_000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendKey(%d) did not panic", rank)
				}
			}()
			AppendKey(nil, rank)
		}()
	}
}

func TestETCSetsCarryValueSize(t *testing.T) {
	e := newETC(t, 5)
	for i := 0; i < 10000; i++ {
		r := e.Next()
		if r.Op == OpSet && r.ValueSize < 1 {
			t.Fatal("SET without value size")
		}
		if r.Op == OpGet && r.ValueSize != 0 {
			t.Fatal("GET with value size")
		}
		if key := AppendKey(nil, r.Rank); !strings.HasPrefix(string(key), "etc-") {
			t.Fatalf("unexpected key %q", key)
		}
	}
}

func TestETCConfigValidation(t *testing.T) {
	bad := DefaultETCConfig()
	bad.Keys = 0
	if _, err := NewETC(bad, rng.New(1)); err == nil {
		t.Error("zero keys accepted")
	}
	bad = DefaultETCConfig()
	bad.GetRatio = 1.5
	if _, err := NewETC(bad, rng.New(1)); err == nil {
		t.Error("GET ratio >1 accepted")
	}
	bad = DefaultETCConfig()
	bad.ZipfAlpha = 0
	if _, err := NewETC(bad, rng.New(1)); err == nil {
		t.Error("zero alpha accepted")
	}
	bad.ZipfAlpha = math.NaN()
	if _, err := NewETC(bad, rng.New(1)); err == nil {
		t.Error("NaN alpha accepted")
	}
	// AppendKey writes 12 digits, so 10¹² keys is the largest space. It
	// goes through Validate alone: NewETC would build its rank table.
	most := DefaultETCConfig()
	most.Keys = 1_000_000_000_000
	if err := most.Validate(); err != nil {
		t.Errorf("10¹² keys rejected: %v", err)
	}
	bad = DefaultETCConfig()
	bad.Keys = 1_000_000_000_001
	if _, err := NewETC(bad, rng.New(1)); err == nil {
		t.Error("10¹²+1 keys accepted")
	}
}

// TestETCRankTableShared pins that ETC sources share one rank table per
// (key space, skew) across the process, including sources built and
// drawing concurrently, that sharing leaves each source's draws what they
// are alone, and that a different key space or skew gets its own table.
func TestETCRankTableShared(t *testing.T) {
	cfg := DefaultETCConfig()
	cfg.Keys = 5000
	const n, draws = 8, 2000
	got := make([]*ETC, n)
	last := make([]KVRequest, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := NewETC(cfg, rng.New(uint64(i)))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = e
			for j := 0; j < draws; j++ {
				last[i] = e.Next()
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, e := range got {
		if e.ranks != got[0].ranks {
			t.Errorf("source %d built its own rank table", i)
		}
		alone, err := NewETC(cfg, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		var want KVRequest
		for j := 0; j < draws; j++ {
			want = alone.Next()
		}
		if last[i] != want {
			t.Errorf("source %d drew %+v concurrently, %+v alone", i, last[i], want)
		}
	}
	for _, c := range []ETCConfig{{Keys: 5001, ZipfAlpha: cfg.ZipfAlpha}, {Keys: 5000, ZipfAlpha: 0.5}} {
		c.GetRatio = cfg.GetRatio
		e, err := NewETC(c, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if e.ranks == got[0].ranks {
			t.Errorf("keys %d alpha %v shares the keys %d alpha %v table", c.Keys, c.ZipfAlpha, cfg.Keys, cfg.ZipfAlpha)
		}
	}
}

// BenchmarkNewETC measures building one ETC source, which every
// Memcached generator thread does at the start of every run.
func BenchmarkNewETC(b *testing.B) {
	cfg := DefaultETCConfig()
	cfg.Keys = 100_000 // the Memcached preload's key space
	stream := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewETC(cfg, stream); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExponentialArrivalsMeanRate(t *testing.T) {
	ia, err := NewExponentialArrivals(100000, rng.New(6)) // 100 KQPS → mean 10µs
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	const n = 100000
	for i := 0; i < n; i++ {
		d := ia.Next()
		if d < 0 {
			t.Fatal("negative interarrival")
		}
		total += d
	}
	mean := total / n
	if mean < 9700*time.Nanosecond || mean > 10300*time.Nanosecond {
		t.Errorf("mean interarrival = %v, want ≈10µs", mean)
	}
	if ia.Rate() != 100000 {
		t.Errorf("Rate = %v", ia.Rate())
	}
}

// TestExponentialArrivalsMatchExpAcrossChunks checks the gaps a Poisson
// source draws ahead against one Exp draw per gap from a twin stream,
// over three chunks and one more gap.
func TestExponentialArrivalsMatchExpAcrossChunks(t *testing.T) {
	const rate = 50_000
	ia, err := NewExponentialArrivals(rate, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	twin := rng.New(8)
	for i := 0; i < 3*gapChunk+1; i++ {
		want := time.Duration(twin.Exp(rate) * float64(time.Second))
		if got := ia.Next(); got != want {
			t.Fatalf("gap %d = %v, one Exp draw per gap gives %v", i, got, want)
		}
	}
}

func TestFixedArrivals(t *testing.T) {
	ia, err := NewFixedArrivals(1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := ia.Next(); got != time.Millisecond {
			t.Fatalf("fixed interarrival = %v, want 1ms", got)
		}
	}
	if math.Abs(ia.Rate()-1000) > 1e-9 {
		t.Errorf("Rate = %v, want 1000", ia.Rate())
	}
}

func TestArrivalValidation(t *testing.T) {
	if _, err := NewExponentialArrivals(0, rng.New(1)); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewFixedArrivals(-5); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestLittleLaw(t *testing.T) {
	// The paper's synthetic setup: 20K QPS at 410µs residence → L = 8.2,
	// below the 10 available cores.
	l := LittleLawConcurrency(20000, 410*time.Microsecond)
	if math.Abs(l-8.2) > 1e-9 {
		t.Errorf("L = %v, want 8.2", l)
	}
	r := MaxRateForConcurrency(10, 410*time.Microsecond)
	if math.Abs(r-10/410e-6) > 1e-6 {
		t.Errorf("max rate = %v", r)
	}
	if !math.IsInf(MaxRateForConcurrency(10, 0), 1) {
		t.Error("zero residence should allow infinite rate")
	}
}

func TestUtilization(t *testing.T) {
	// Paper: Memcached at 500 KQPS with ~10µs service on 10 workers ≈ 50%.
	u := Utilization(500000, 10*time.Microsecond, 10)
	if math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
	if !math.IsInf(Utilization(1, time.Second, 0), 1) {
		t.Error("zero servers should be infinite utilization")
	}
}

func TestOpString(t *testing.T) {
	if OpGet.String() != "GET" || OpSet.String() != "SET" {
		t.Error("op names wrong")
	}
}
