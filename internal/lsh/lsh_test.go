package lsh

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// The fidelity oracle. Index.Candidates counts the vectors a query probes;
// query below ranks them by exact cosine similarity, as an HDSearch bucket
// does, and bruteForce ranks the whole dataset to measure LSH recall. A
// result's ID is its vector's position in the dataset, which is also its
// index ID when the dataset was added in order.

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

// query returns the top-k vectors by cosine similarity to q among the LSH
// candidates of idx, which indexes data in order. Results are ordered
// most-similar first.
func query(idx *Index, data []Vector, q Vector, k int) ([]result, queryStats, error) {
	if len(q) != idx.cfg.Dim {
		return nil, queryStats{}, fmt.Errorf("lsh: query dimension %d ≠ index dimension %d", len(q), idx.cfg.Dim)
	}
	if k < 1 {
		return nil, queryStats{}, fmt.Errorf("lsh: k must be ≥1, got %d", k)
	}
	var stats queryStats
	seen := make(map[int]struct{})
	h := &resultHeap{}
	heap.Init(h)
	for t := range idx.tables {
		bucket := idx.tables[t][idx.signature(t, q)]
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
	idx, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, v := range data {
		if err := idx.Add(v); err != nil {
			tb.Fatal(err)
		}
	}
	return idx
}

// hdsearchIndex builds the index the HDSearch service model builds: 20K
// clustered 64-dim vectors, 8 tables of 12 bits.
func hdsearchIndex(tb testing.TB) (*Index, []Vector) {
	tb.Helper()
	data := GenerateDataset(20_000, 64, 32, 778)
	return build(tb, Config{Dim: 64, Tables: 8, Bits: 12, Seed: 777}, data), data
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

// checkCandidates compares idx.Candidates(q) with the oracle's count, and
// min(k, count) with the length of the oracle's result list: the two
// numbers the HDSearch model reads.
func checkCandidates(t *testing.T, idx *Index, data []Vector, q Vector, k int) {
	t.Helper()
	n, err := idx.Candidates(q)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := query(idx, data, q, k)
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
	if _, err := New(Config{Dim: 0, Tables: 1, Bits: 8}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := New(Config{Dim: 8, Tables: 0, Bits: 8}); err == nil {
		t.Error("zero tables accepted")
	}
	if _, err := New(Config{Dim: 8, Tables: 1, Bits: 65}); err == nil {
		t.Error("65 bits accepted")
	}
}

func TestAddDimensionMismatch(t *testing.T) {
	idx, err := New(Config{Dim: 4, Tables: 2, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(Vector{1, 2}); err == nil {
		t.Error("wrong-dimension vector accepted")
	}
	if idx.Len() != 0 {
		t.Errorf("rejected vector indexed: Len = %d", idx.Len())
	}
}

func TestExactMatchIsTopResult(t *testing.T) {
	data := GenerateDataset(500, 16, 5, 2)
	idx := build(t, Config{Dim: 16, Tables: 8, Bits: 10, Seed: 1}, data)
	// Querying with an indexed vector must return it first (it collides
	// with itself in every table).
	res, stats, err := query(idx, data, data[42], 5)
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
	idx := build(t, Config{Dim: 8, Tables: 6, Bits: 6, Seed: 3}, data)
	res, _, err := query(idx, data, data[0], 10)
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
	idx := build(t, Config{Dim: 32, Tables: 16, Bits: 8, Seed: 5}, data)
	queries := GenerateDataset(20, 32, 8, 6)
	totalRecall := 0.0
	for _, q := range queries {
		approx, _, err := query(idx, data, q, 10)
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
	idx := build(t, Config{Dim: 4, Tables: 2, Bits: 4, Seed: 7}, data)
	if _, err := idx.Candidates(Vector{1}); err == nil {
		t.Error("wrong-dimension Candidates query accepted")
	}
	if _, _, err := query(idx, data, Vector{1}, 5); err == nil {
		t.Error("wrong-dimension query accepted")
	}
	if _, _, err := query(idx, data, Vector{1, 2, 3, 4}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := bruteForce(data, Vector{1}, 5); err == nil {
		t.Error("wrong-dimension brute force accepted")
	}
}

func TestQueryFewerThanK(t *testing.T) {
	data := []Vector{{1, 0, 0, 0}}
	idx := build(t, Config{Dim: 4, Tables: 4, Bits: 4, Seed: 8}, data)
	res, _, err := query(idx, data, Vector{1, 0, 0, 0}, 10)
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

// TestCandidatesMatchesOracle checks the production count against the
// ranking oracle on the HDSearch service's own index and query stream.
func TestCandidatesMatchesOracle(t *testing.T) {
	idx, data := hdsearchIndex(t)
	for _, q := range hdsearchQueries(data, 256, 1) {
		checkCandidates(t, idx, data, q, 10)
	}
}

// TestCandidatesAcrossGenerationWrap runs queries on both sides of the
// mark generation's wrap. The first queries leave marks at generations
// 1–3, which the queries after the wrap reuse, so a wrap that kept the
// old marks would undercount.
func TestCandidatesAcrossGenerationWrap(t *testing.T) {
	idx, data := hdsearchIndex(t)
	qs := hdsearchQueries(data, 5, 2)
	for _, q := range qs[:3] {
		checkCandidates(t, idx, data, q, 10)
	}
	idx.gen = math.MaxUint32 - 2
	for _, q := range qs[3:] {
		checkCandidates(t, idx, data, q, 10)
	}
	if idx.gen != math.MaxUint32 {
		t.Fatalf("gen = %d before the wrap, want MaxUint32", idx.gen)
	}
	for _, q := range qs[:3] {
		checkCandidates(t, idx, data, q, 10)
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
	mk := func() *Index {
		idx, _ := New(Config{Dim: 8, Tables: 4, Bits: 16, Seed: 42})
		return idx
	}
	a, b := mk(), mk()
	v := GenerateDataset(1, 8, 1, 9)[0]
	for tbl := 0; tbl < 4; tbl++ {
		if a.signature(tbl, v) != b.signature(tbl, v) {
			t.Fatal("same seed produced different signatures")
		}
	}
}

func TestNearbyVectorsCollideMoreThanFarOnes(t *testing.T) {
	idx, _ := New(Config{Dim: 32, Tables: 1, Bits: 16, Seed: 10})
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
	sigBase := idx.signature(0, base)
	sigNear := idx.signature(0, near)
	sigFar := idx.signature(0, far)
	hamming := func(a, b uint64) int {
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

// benchIndex is the index BenchmarkQuery and BenchmarkCandidates share.
func benchIndex(b *testing.B) (*Index, []Vector, Vector) {
	data := GenerateDataset(10000, 64, 16, 2)
	idx := build(b, Config{Dim: 64, Tables: 8, Bits: 12, Seed: 1}, data)
	return idx, data, GenerateDataset(1, 64, 16, 3)[0]
}

var benchCount int

func BenchmarkCandidates(b *testing.B) {
	idx, _, q := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := idx.Candidates(q)
		if err != nil {
			b.Fatal(err)
		}
		benchCount = n
	}
}

func BenchmarkQuery(b *testing.B) {
	idx, data, q := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := query(idx, data, q, 10); err != nil {
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
