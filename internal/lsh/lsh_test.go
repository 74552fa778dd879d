package lsh

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The fidelity oracles. reference is an LSH index built the plain way, with
// nothing of Build's layout or kernel: the hyperplanes drawn from the stream
// Build draws them from but kept one slice per plane, each projection one
// Dot, and each table a map from signature to IDs. Its signature is the
// reference both signature kernels must match bit for bit. query ranks a
// query's reference candidates by exact cosine similarity, as an HDSearch
// bucket does, and bruteForce ranks the whole dataset to measure LSH recall.
// A result's ID is its vector's position in the dataset, which is also its
// index ID.

// Dot returns the inner product of two equal-length vectors, summed from 0
// in dimension order.
func (v Vector) Dot(u Vector) float64 {
	s := 0.0
	for i := range v {
		s += v[i] * u[i]
	}
	return s
}

// reference is the oracles' own LSH index.
type reference struct {
	dim    int
	planes [][]Vector // [table][bit] hyperplane normals
	tables []map[uint64][]int
}

// newReference draws cfg's hyperplanes and hashes data in order.
func newReference(cfg Config, data []Vector) *reference {
	stream := rng.NewLabeled(cfg.Seed, "lsh-hyperplanes")
	ref := &reference{dim: cfg.Dim, planes: make([][]Vector, cfg.Tables), tables: make([]map[uint64][]int, cfg.Tables)}
	for t := range ref.planes {
		ref.planes[t] = make([]Vector, cfg.Bits)
		for b := range ref.planes[t] {
			plane := make(Vector, cfg.Dim)
			for d := range plane {
				plane[d] = stream.Normal(0, 1)
			}
			ref.planes[t][b] = plane
		}
		ref.tables[t] = make(map[uint64][]int)
	}
	for i, v := range data {
		for t, table := range ref.tables {
			sig := ref.signature(t, v)
			table[sig] = append(table[sig], i)
		}
	}
	return ref
}

// signature is the plain per-plane signature of v in table t: bit b is set
// when the table's plane b has a Dot with v of at least 0.
func (ref *reference) signature(t int, v Vector) uint64 {
	var sig uint64
	for b, plane := range ref.planes[t] {
		if plane.Dot(v) >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// kernel is one way to hash a vector in every table of an index.
type kernel struct {
	name string
	hash func(v Vector, sigs []uint32)
}

// kernels returns idx's two signature kernels: the signatures entry, which
// runs the kernel this host dispatches to, and signaturesGo, the kernel
// hosts without AVX run. Testing both lets a host with AVX check the
// kernel other hosts run.
func kernels(idx *Index) []kernel {
	return []kernel{
		{"signatures", idx.signatures},
		{"signaturesGo", func(v Vector, sigs []uint32) { signaturesGo(idx.planes, v, sigs, idx.bits) }},
	}
}

// checkSignatures compares both of idx's kernels' signatures of every
// vector in every table with ref's, bit for bit.
func checkSignatures(t *testing.T, idx *Index, ref *reference, vs []Vector) {
	t.Helper()
	sigs := make([]uint32, len(ref.planes))
	for _, k := range kernels(idx) {
		for i, v := range vs {
			k.hash(v, sigs)
			for tbl, got := range sigs {
				if want := ref.signature(tbl, v); uint64(got) != want {
					t.Fatalf("%s: vector %d %v, table %d: signature %#x, reference %#x", k.name, i, v, tbl, got, want)
				}
			}
		}
	}
}

// sigsOf returns v's signature in each of idx's tables.
func sigsOf(idx *Index, v Vector) []uint32 {
	sigs := make([]uint32, idx.tables)
	idx.signatures(v, sigs)
	return sigs
}

// orderSensitive returns vectors whose projection onto one of ref's planes
// has a sign that depends on the order of its sum. Each vector is zero but
// at three dimensions, where its products with the plane are B, -B and s:
// B + (-B) is exactly 0, and s < 0 is far below half an ulp of B. Summed
// in dimension order, s vanishes into B when it comes before -B
// (projection 0, bit set) and survives when it comes last (projection s,
// bit clear). A sum split across two accumulators gets the other bit where
// it keeps an s that comes before -B apart from both, or puts an s that
// comes last with just one of them. The three dimensions range over every
// triple of 0, 1, 2, Dim/2, Dim/2+1 and Dim-1, with s in each slot, so
// both an even/odd and a first-half/second-half split show. A fused
// multiply-add gets the bit wrong too: the product at k is exactly -B only
// once rounded, so a fused B + p[k]·v[k] keeps a residual where the plain
// sum reaches 0.
func orderSensitive(ref *reference) []Vector {
	var pos []int
	for _, d := range []int{0, 1, 2, ref.dim / 2, ref.dim/2 + 1, ref.dim - 1} {
		if d < ref.dim && !slices.Contains(pos, d) {
			pos = append(pos, d)
		}
	}
	slices.Sort(pos)
	var out []Vector
	for _, table := range ref.planes {
		for _, p := range table {
			for a := 0; a < len(pos); a++ {
				for b := a + 1; b < len(pos); b++ {
					for c := b + 1; c < len(pos); c++ {
						tri := [3]int{pos[a], pos[b], pos[c]}
						for slot := range tri {
							rest := slices.Delete(slices.Clone(tri[:]), slot, slot+1)
							if v, ok := cancelling(p, rest[0], rest[1], tri[slot]); ok {
								out = append(out, v)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// cancelling returns a vector v, zero but at dimensions i, k and j, whose
// products with plane p are B ≈ 1.5 at i, exactly -B at k and about
// -2^-60·B at j. It reports false if no v[k] within 3 ulps of -B/p[k], for
// any of 8 consecutive values of v[i] from 1.5/p[i] up, makes the product
// exactly -B.
func cancelling(p Vector, i, k, j int) (Vector, bool) {
	v := make(Vector, len(p))
	v[i] = 1.5 / p[i]
	for range 8 {
		big := p[i] * v[i]
		lo, hi := -big/p[k], -big/p[k]
		for range 4 {
			for _, x := range [2]float64{lo, hi} {
				if p[k]*x == -big {
					v[k] = x
					v[j] = -big / (1 << 60) / p[j]
					return v, true
				}
			}
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		}
		v[i] = math.Nextafter(v[i], math.Inf(1))
	}
	return nil, false
}

// result is one ranked neighbour.
type result struct {
	ID         int
	Similarity float64
}

// queryStats reports the work a ranking query performed.
type queryStats struct {
	Candidates int // distinct vectors scored
	Probes     int // non-empty buckets touched
}

// norm returns the Euclidean norm.
func norm(v Vector) float64 { return math.Sqrt(v.Dot(v)) }

// cosineSimilarity returns v·u / (|v||u|), or 0 for zero vectors.
func cosineSimilarity(v, u Vector) float64 {
	nv, nu := norm(v), norm(u)
	if nv == 0 || nu == 0 {
		return 0
	}
	return v.Dot(u) / (nv * nu)
}

// query returns the top-k vectors by cosine similarity to q among the
// candidates of ref, which hashed data in order. Results are ordered
// most-similar first.
func query(ref *reference, data []Vector, q Vector, k int) ([]result, queryStats, error) {
	if len(q) != ref.dim {
		return nil, queryStats{}, fmt.Errorf("lsh: query dimension %d ≠ index dimension %d", len(q), ref.dim)
	}
	if k < 1 {
		return nil, queryStats{}, fmt.Errorf("lsh: k must be ≥1, got %d", k)
	}
	var stats queryStats
	seen := make(map[int]struct{})
	h := &resultHeap{}
	heap.Init(h)
	for t, table := range ref.tables {
		bucket := table[ref.signature(t, q)]
		if len(bucket) > 0 {
			stats.Probes++
		}
		for _, i := range bucket {
			if _, dup := seen[i]; dup {
				continue
			}
			seen[i] = struct{}{}
			sim := cosineSimilarity(q, data[i])
			if h.Len() < k {
				heap.Push(h, result{ID: i, Similarity: sim})
			} else if sim > (*h)[0].Similarity {
				(*h)[0] = result{ID: i, Similarity: sim}
				heap.Fix(h, 0)
			}
		}
	}
	stats.Candidates = len(seen)
	out := make([]result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(result)
	}
	return out, stats, nil
}

// bruteForce returns the exact top-k of data by scanning every vector —
// the ground truth LSH recall is measured against.
func bruteForce(data []Vector, q Vector, k int) ([]result, error) {
	all := make([]result, len(data))
	for i, v := range data {
		if len(v) != len(q) {
			return nil, fmt.Errorf("lsh: query dimension %d ≠ vector %d dimension %d", len(q), i, len(v))
		}
		all[i] = result{ID: i, Similarity: cosineSimilarity(q, v)}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Similarity > all[b].Similarity })
	if k > len(all) {
		k = len(all)
	}
	return all[:k], nil
}

// recall computes |lsh ∩ exact| / |exact| for two result lists.
func recall(lshResults, exact []result) float64 {
	if len(exact) == 0 {
		return 0
	}
	in := make(map[int]struct{}, len(exact))
	for _, r := range exact {
		in[r.ID] = struct{}{}
	}
	hits := 0
	for _, r := range lshResults {
		if _, ok := in[r.ID]; ok {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// resultHeap is a min-heap by similarity (root = weakest of the top-k).
type resultHeap []result

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Similarity < h[j].Similarity }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(result)) }
func (h *resultHeap) Pop() any          { old := *h; n := len(old); r := old[n-1]; *h = old[:n-1]; return r }

// build indexes data in order.
func build(tb testing.TB, cfg Config, data []Vector) *Index {
	tb.Helper()
	idx, err := Build(cfg, data)
	if err != nil {
		tb.Fatal(err)
	}
	return idx
}

// hdsearchConfig is the index the HDSearch service model builds: 8 tables
// of 12 bits over 64-dim vectors.
var hdsearchConfig = Config{Dim: 64, Tables: 8, Bits: 12, Seed: 777}

// hdsearchIndex builds HDSearch's index over its dataset, 20K clustered
// 64-dim vectors.
func hdsearchIndex(tb testing.TB) (*Index, []Vector) {
	tb.Helper()
	data := GenerateDataset(20_000, 64, 32, 778)
	return build(tb, hdsearchConfig, data), data
}

// hdsearchQueries draws n queries the way HDSearch.NewQuery does: a
// dataset vector plus N(0, 0.15) noise per dimension.
func hdsearchQueries(data []Vector, n int, seed uint64) []Vector {
	stream := rng.New(seed)
	qs := make([]Vector, n)
	for i := range qs {
		base := data[stream.Intn(len(data))]
		q := make(Vector, len(base))
		for d := range q {
			q[d] = base[d] + stream.Normal(0, 0.15)
		}
		qs[i] = q
	}
	return qs
}

// checkCandidates compares idx.Candidates(q) with the count of the oracle
// over ref, and min(k, count) with the length of the oracle's result list:
// the two numbers the HDSearch model reads.
func checkCandidates(t *testing.T, idx *Index, ref *reference, data []Vector, q Vector, k int) {
	t.Helper()
	n, err := idx.Candidates(q)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := query(ref, data, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if n != stats.Candidates {
		t.Fatalf("Candidates = %d, oracle scored %d (gen %d)", n, stats.Candidates, idx.gen)
	}
	if min(k, n) != len(res) {
		t.Fatalf("min(%d, %d) = %d, oracle returned %d results", k, n, min(k, n), len(res))
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{3, 4}
	if norm(v) != 5 {
		t.Errorf("norm = %v, want 5", norm(v))
	}
	u := Vector{1, 0}
	if got := v.Dot(u); got != 3 {
		t.Errorf("Dot = %v, want 3", got)
	}
	if got := cosineSimilarity(v, v); math.Abs(got-1) > 1e-12 {
		t.Errorf("self-similarity = %v, want 1", got)
	}
	if got := cosineSimilarity(Vector{1, 0}, Vector{0, 1}); math.Abs(got) > 1e-12 {
		t.Errorf("orthogonal similarity = %v, want 0", got)
	}
	if got := cosineSimilarity(Vector{0, 0}, v); got != 0 {
		t.Errorf("zero-vector similarity = %v, want 0", got)
	}
}

func TestNewValidation(t *testing.T) {
	data := GenerateDataset(3, 8, 1, 1)
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero dim", Config{Dim: 0, Tables: 1, Bits: 8}, false},
		{"zero tables", Config{Dim: 8, Tables: 0, Bits: 8}, false},
		{"zero bits", Config{Dim: 8, Tables: 1, Bits: 0}, false},
		{"17 bits", Config{Dim: 8, Tables: 1, Bits: 17}, false},
		{"65 bits", Config{Dim: 8, Tables: 1, Bits: 65}, false},
		// 3 vectors in MaxInt32 tables: entries an int32 offset cannot reach.
		{"entries past int32", Config{Dim: 8, Tables: math.MaxInt32, Bits: 1}, false},
		{"1 bit", Config{Dim: 8, Tables: 2, Bits: 1}, true},
		{"16 bits", Config{Dim: 8, Tables: 2, Bits: 16}, true},
	} {
		idx, err := Build(tc.cfg, data)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || idx != nil) {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestAddDimensionMismatch checks that Build rejects a vector of the wrong
// dimension at any position in data, and names it.
func TestAddDimensionMismatch(t *testing.T) {
	cfg := Config{Dim: 4, Tables: 2, Bits: 8}
	for pos := 0; pos < 3; pos++ {
		for _, bad := range []Vector{{1, 2}, {1, 2, 3, 4, 5}, {}} {
			data := GenerateDataset(3, 4, 1, 1)
			data[pos] = bad
			idx, err := Build(cfg, data)
			if err == nil || idx != nil {
				t.Errorf("%d-dim vector at %d accepted", len(bad), pos)
				continue
			}
			if want := fmt.Sprintf("vector %d has dimension %d", pos, len(bad)); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
		}
	}
}

func TestExactMatchIsTopResult(t *testing.T) {
	data := GenerateDataset(500, 16, 5, 2)
	ref := newReference(Config{Dim: 16, Tables: 8, Bits: 10, Seed: 1}, data)
	// Querying with an indexed vector must return it first (it collides
	// with itself in every table).
	res, stats, err := query(ref, data, data[42], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != 42 {
		t.Fatalf("top result = %+v, want 42", res)
	}
	if math.Abs(res[0].Similarity-1) > 1e-9 {
		t.Errorf("self similarity = %v, want 1", res[0].Similarity)
	}
	if stats.Candidates == 0 || stats.Probes == 0 {
		t.Errorf("stats empty: %+v", stats)
	}
}

func TestResultsSortedDescending(t *testing.T) {
	data := GenerateDataset(300, 8, 3, 4)
	ref := newReference(Config{Dim: 8, Tables: 6, Bits: 6, Seed: 3}, data)
	res, _, err := query(ref, data, data[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Similarity > res[i-1].Similarity {
			t.Fatalf("results not sorted: %v", res)
		}
	}
}

func TestRecallAgainstBruteForce(t *testing.T) {
	data := GenerateDataset(2000, 32, 8, 6)
	ref := newReference(Config{Dim: 32, Tables: 16, Bits: 8, Seed: 5}, data)
	queries := GenerateDataset(20, 32, 8, 6)
	totalRecall := 0.0
	for _, q := range queries {
		approx, _, err := query(ref, data, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := bruteForce(data, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		totalRecall += recall(approx, exact)
	}
	avg := totalRecall / float64(len(queries))
	// Clustered data with 16 tables should retrieve most true neighbours.
	if avg < 0.5 {
		t.Errorf("average recall = %v, want ≥0.5", avg)
	}
}

func TestQueryErrors(t *testing.T) {
	data := []Vector{{1, 2, 3, 4}}
	cfg := Config{Dim: 4, Tables: 2, Bits: 4, Seed: 7}
	idx, ref := build(t, cfg, data), newReference(cfg, data)
	if _, err := idx.Candidates(Vector{1}); err == nil {
		t.Error("wrong-dimension Candidates query accepted")
	}
	if _, _, err := query(ref, data, Vector{1}, 5); err == nil {
		t.Error("wrong-dimension query accepted")
	}
	if _, _, err := query(ref, data, Vector{1, 2, 3, 4}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := bruteForce(data, Vector{1}, 5); err == nil {
		t.Error("wrong-dimension brute force accepted")
	}
}

func TestQueryFewerThanK(t *testing.T) {
	data := []Vector{{1, 0, 0, 0}}
	cfg := Config{Dim: 4, Tables: 4, Bits: 4, Seed: 8}
	idx, ref := build(t, cfg, data), newReference(cfg, data)
	res, _, err := query(ref, data, Vector{1, 0, 0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("got %d results, want 1", len(res))
	}
	if n, err := idx.Candidates(Vector{1, 0, 0, 0}); err != nil || n != 1 {
		t.Errorf("Candidates = %d, %v; want 1 (one vector in every probed bucket)", n, err)
	}
}

func TestRecallEdgeCases(t *testing.T) {
	if recall(nil, nil) != 0 {
		t.Error("recall with empty exact should be 0")
	}
	a := []result{{ID: 7}}
	if recall(a, a) != 1 {
		t.Error("identical lists should have recall 1")
	}
}

// TestSignatureMatchesReference checks both signature kernels against the
// plain per-plane signature, bit for bit: on HDSearch's dataset and query
// stream, at widths that fill part of a four-lane group or all 16 lanes,
// and on orderSensitive's vectors, which a reordered or fused sum gets
// wrong.
func TestSignatureMatchesReference(t *testing.T) {
	t.Logf("signatures runs the AVX kernel: %v", useAVX)
	check := func(t *testing.T, idx *Index, ref *reference, vs []Vector) {
		t.Helper()
		adversarial := orderSensitive(ref)
		if ref.dim >= 3 && len(adversarial) == 0 {
			t.Fatal("built no order-sensitive vectors")
		}
		checkSignatures(t, idx, ref, append(vs, adversarial...))
	}
	t.Run("hdsearch", func(t *testing.T) {
		idx, data := hdsearchIndex(t)
		check(t, idx, newReference(hdsearchConfig, nil), slices.Concat(data, hdsearchQueries(data, 2000, 4)))
	})
	for _, bits := range []int{1, 3, 5, 13, 16} {
		for _, dim := range []int{1, 3, 64} {
			cfg := Config{Dim: dim, Tables: 3, Bits: bits, Seed: uint64(100*bits + dim)}
			t.Run(fmt.Sprintf("bits=%d/dim=%d", bits, dim), func(t *testing.T) {
				check(t, build(t, cfg, nil), newReference(cfg, nil), GenerateDataset(500, dim, 4, cfg.Seed))
			})
		}
	}
}

// FuzzSignatureMatchesReference reads the vector as little-endian float64
// bit patterns, so signed zeros, subnormals, huge and tiny magnitudes, ±Inf
// and NaN all reach both kernels. The seeds include orderSensitive's
// vectors on a width of one whole four-lane group and on one of part of a
// group.
func FuzzSignatureMatchesReference(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	f.Add(uint8(11), uint8(63), uint64(777), enc())
	f.Add(uint8(11), uint8(7), uint64(1), enc(0, math.Copysign(0, -1), tiny, -tiny, 0x1p-1022, -0x1p-1030, 1e-300, 1e300))
	f.Add(uint8(4), uint8(3), uint64(2), enc(huge, huge, -huge, 1))
	f.Add(uint8(15), uint8(2), uint64(3), enc(math.Inf(1), math.Inf(-1), math.NaN()))
	for _, cfg := range []Config{{Dim: 64, Tables: 2, Bits: 4, Seed: 4}, {Dim: 3, Tables: 2, Bits: 3, Seed: 5}} {
		for _, v := range orderSensitive(newReference(cfg, nil)) {
			f.Add(uint8(cfg.Bits-1), uint8(cfg.Dim-1), cfg.Seed, enc(v...))
		}
	}
	f.Fuzz(func(t *testing.T, bits, dim uint8, seed uint64, raw []byte) {
		cfg := Config{Dim: 1 + int(dim)%64, Tables: 2, Bits: 1 + int(bits)%maxBits, Seed: seed}
		v := make(Vector, cfg.Dim)
		for d := range v {
			if 8*d+8 <= len(raw) {
				v[d] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*d:]))
			}
		}
		checkSignatures(t, build(t, cfg, nil), newReference(cfg, nil), []Vector{v})
	})
}

// TestCandidatesMatchesOracle checks the production count against the
// ranking oracle on the HDSearch service's own index and query stream.
// The oracle hashes with the reference signature into its own maps, so
// this checks the kernel and the CSR buckets together.
func TestCandidatesMatchesOracle(t *testing.T) {
	idx, data := hdsearchIndex(t)
	ref := newReference(hdsearchConfig, data)
	for _, q := range hdsearchQueries(data, 256, 1) {
		checkCandidates(t, idx, ref, data, q, 10)
	}
}

// TestCandidatesAcrossGenerationWrap runs queries on both sides of the
// mark generation's wrap. The first queries leave marks at generations
// 1–3, which the queries after the wrap reuse, so a wrap that kept the
// old marks would undercount.
func TestCandidatesAcrossGenerationWrap(t *testing.T) {
	idx, data := hdsearchIndex(t)
	ref := newReference(hdsearchConfig, data)
	qs := hdsearchQueries(data, 5, 2)
	for _, q := range qs[:3] {
		checkCandidates(t, idx, ref, data, q, 10)
	}
	idx.gen = math.MaxUint32 - 2
	for _, q := range qs[3:] {
		checkCandidates(t, idx, ref, data, q, 10)
	}
	if idx.gen != math.MaxUint32 {
		t.Fatalf("gen = %d before the wrap, want MaxUint32", idx.gen)
	}
	for _, q := range qs[:3] {
		checkCandidates(t, idx, ref, data, q, 10)
	}
	if idx.gen != 3 {
		t.Errorf("gen = %d after three queries past the wrap, want 3", idx.gen)
	}
}

func TestCandidatesAllocFree(t *testing.T) {
	idx, data := hdsearchIndex(t)
	q := hdsearchQueries(data, 1, 3)[0]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := idx.Candidates(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Candidates allocates %.1f times per query, want 0", allocs)
	}
}

func TestSignatureDeterministic(t *testing.T) {
	cfg := Config{Dim: 8, Tables: 4, Bits: 16, Seed: 42}
	a, b := build(t, cfg, nil), build(t, cfg, nil)
	v := GenerateDataset(1, 8, 1, 9)[0]
	if !slices.Equal(sigsOf(a, v), sigsOf(b, v)) {
		t.Fatal("same seed produced different signatures")
	}
}

func TestNearbyVectorsCollideMoreThanFarOnes(t *testing.T) {
	idx := build(t, Config{Dim: 32, Tables: 1, Bits: 16, Seed: 10}, nil)
	stream := rng.New(11)
	base := make(Vector, 32)
	for d := range base {
		base[d] = stream.Normal(0, 1)
	}
	near := make(Vector, 32)
	far := make(Vector, 32)
	for d := range base {
		near[d] = base[d] + stream.Normal(0, 0.05)
		far[d] = stream.Normal(0, 1)
	}
	sigBase := sigsOf(idx, base)[0]
	sigNear := sigsOf(idx, near)[0]
	sigFar := sigsOf(idx, far)[0]
	hamming := func(a, b uint32) int {
		x := a ^ b
		n := 0
		for x != 0 {
			n++
			x &= x - 1
		}
		return n
	}
	if hamming(sigBase, sigNear) >= hamming(sigBase, sigFar) {
		t.Errorf("near hamming %d not smaller than far hamming %d",
			hamming(sigBase, sigNear), hamming(sigBase, sigFar))
	}
}

func TestGenerateDatasetShape(t *testing.T) {
	data := GenerateDataset(100, 16, 4, 1)
	if len(data) != 100 {
		t.Fatalf("n = %d, want 100", len(data))
	}
	for _, v := range data {
		if len(v) != 16 {
			t.Fatalf("dim = %d, want 16", len(v))
		}
	}
	// Deterministic per seed.
	again := GenerateDataset(100, 16, 4, 1)
	if again[0][0] != data[0][0] {
		t.Error("dataset generation not deterministic")
	}
}

var benchCount int

// BenchmarkCandidates cycles HDSearch's own index through 4,096 queries
// drawn as HDSearch.NewQuery draws them. One query repeated would let the
// branch predictor learn its buckets' scan and hide what a production
// query stream costs.
func BenchmarkCandidates(b *testing.B) {
	idx, data := hdsearchIndex(b)
	qs := hdsearchQueries(data, 4096, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := idx.Candidates(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		benchCount = n
	}
}

var benchSig uint32

// BenchmarkSignatures hashes BenchmarkCandidates' 4,096 queries in all
// 8 tables of HDSearch's index with each kernel: "signatures" runs the
// one this host dispatches to, "signaturesGo" the portable one.
func BenchmarkSignatures(b *testing.B) {
	idx, data := hdsearchIndex(b)
	qs := hdsearchQueries(data, 4096, 5)
	for _, k := range kernels(idx) {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.hash(qs[i%len(qs)], idx.sigs)
			}
			benchSig = idx.sigs[0]
		})
	}
}

func BenchmarkQuery(b *testing.B) {
	data := GenerateDataset(10000, 64, 16, 2)
	ref := newReference(Config{Dim: 64, Tables: 8, Bits: 12, Seed: 1}, data)
	q := GenerateDataset(1, 64, 16, 3)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := query(ref, data, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForce(b *testing.B) {
	data := GenerateDataset(10000, 64, 16, 2)
	q := GenerateDataset(1, 64, 16, 3)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bruteForce(data, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}
