// Package lsh implements a locality-sensitive-hash index for cosine
// similarity over dense feature vectors — the data structure at the heart
// of HDSearch, the MicroSuite image-similarity service the paper evaluates
// (§IV-B: "It uses Locality-Sensitive Hash (LSH) tables to traverse the
// search space of the problem efficiently").
//
// The index uses random-hyperplane signatures (Charikar, STOC'02): each of
// L tables hashes a vector to a B-bit signature whose bits are the signs of
// projections onto random hyperplanes; vectors with small angular distance
// collide with high probability. A query probes its bucket in every table
// and gathers the distinct vectors found there as candidates.
//
// Build indexes a whole dataset at once. It hashes each vector once per
// table and stores the buckets in compressed sparse rows (CSR): one int32
// ID array holding every table's buckets back to back, and 2^B+1 int32
// offsets per table that delimit them. B is at most 16, which bounds the
// offsets at 64K+1 per table.
//
// A signature hashes four hyperplanes per pass over the vector, one
// accumulator each. Every accumulator still sums plane[d]*v[d] from 0 in
// dimension order, so each projection rounds exactly as a plain one-plane
// dot product does. The order matters: a reordered sum rounds differently,
// can flip a signature bit near zero, and would move the buckets.
//
// The index counts a query's candidates and does not rank them. The
// HDSearch model reads only that count: it sets the bucket's search cost,
// and min(top-k, count) sets the response size. The ranking a real bucket
// performs, exact cosine similarity over the candidates, lives in the
// package's tests as the oracle the count is checked against, together
// with the plain per-plane signature the kernel is checked against and the
// brute-force scan that measures the index's recall.
package lsh

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// maxBits is the largest signature width Build accepts.
const maxBits = 16

// Vector is a dense feature vector.
type Vector []float64

// Config sizes the index.
type Config struct {
	Dim    int // vector dimensionality
	Tables int // number of hash tables (L)
	Bits   int // signature bits per table (B), 1..maxBits
	Seed   uint64
}

// Index is an LSH index over cosine similarity, built once over a dataset.
// Vector IDs are their positions in that dataset.
//
// The buckets form one CSR over rows t<<Bits | signature: row r's IDs are
// ids[start[r]:start[r+1]], in ascending order. Table t's 2^Bits+1 offsets
// are start[t<<Bits : (t+1)<<Bits+1], so neighbouring tables share one.
//
// An Index is not safe for concurrent use: Candidates writes the index's
// mark array. Each owner builds its own index and queries it from one
// goroutine at a time; every HDSearch replica builds its own, and one
// worker or one shard drives it.
type Index struct {
	dim, tables, bits int
	planes            []float64 // [table][bit][dim] hyperplane normals, row-major
	start             []int32   // tables<<bits + 1 row offsets into ids
	ids               []int32
	// mark[id] == gen once Candidates has counted vector id for the
	// current query. gen starts each query one higher, so no reset is
	// needed until it wraps.
	mark []uint32
	gen  uint32
}

// Build indexes data under the IDs 0..len(data)-1. The index keeps each
// vector's bucket memberships, not the vector.
func Build(cfg Config, data []Vector) (*Index, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("lsh: dimension must be ≥1, got %d", cfg.Dim)
	}
	if cfg.Tables < 1 || cfg.Bits < 1 || cfg.Bits > maxBits {
		return nil, fmt.Errorf("lsh: need ≥1 table and 1..%d bits, got L=%d B=%d", maxBits, cfg.Tables, cfg.Bits)
	}
	if int64(cfg.Tables)*int64(len(data)) > math.MaxInt32 {
		return nil, fmt.Errorf("lsh: %d tables × %d vectors exceed %d bucket entries", cfg.Tables, len(data), math.MaxInt32)
	}
	for i, v := range data {
		if len(v) != cfg.Dim {
			return nil, fmt.Errorf("lsh: vector %d has dimension %d ≠ index dimension %d", i, len(v), cfg.Dim)
		}
	}
	idx := &Index{
		dim:    cfg.Dim,
		tables: cfg.Tables,
		bits:   cfg.Bits,
		planes: make([]float64, cfg.Tables*cfg.Bits*cfg.Dim),
		start:  make([]int32, cfg.Tables<<cfg.Bits+1),
		ids:    make([]int32, cfg.Tables*len(data)),
		mark:   make([]uint32, len(data)),
	}
	stream := rng.NewLabeled(cfg.Seed, "lsh-hyperplanes")
	for i := range idx.planes {
		idx.planes[i] = stream.Normal(0, 1)
	}

	// Counting sort by row: hash every vector once, count each row's
	// entries, turn the counts into offsets, then place the IDs in order.
	rows := make([]int32, len(idx.ids)) // [vector][table] row
	for i, v := range data {
		for t := 0; t < cfg.Tables; t++ {
			r := int32(t<<cfg.Bits | int(idx.signature(t, v)))
			rows[i*cfg.Tables+t] = r
			idx.start[r+1]++
		}
	}
	for r := 1; r < len(idx.start); r++ {
		idx.start[r] += idx.start[r-1]
	}
	next := append([]int32(nil), idx.start[:len(idx.start)-1]...)
	for i := range data {
		for _, r := range rows[i*cfg.Tables : (i+1)*cfg.Tables] {
			idx.ids[next[r]] = int32(i)
			next[r]++
		}
	}
	return idx, nil
}

// signature hashes v in table t: bit b is set when v's projection onto the
// table's plane b is ≥ 0. Planes go four to a pass over v, each into its
// own accumulator summed from 0 in dimension order; the last Bits mod 4
// planes go one to a pass.
func (idx *Index) signature(t int, v Vector) uint32 {
	dim := len(v)
	planes := idx.planes[t*idx.bits*dim : (t+1)*idx.bits*dim]
	var sig uint32
	b := 0
	for ; b+4 <= idx.bits; b += 4 {
		p := planes[b*dim : (b+4)*dim]
		p0, p1, p2, p3 := p[:dim], p[dim:][:dim], p[2*dim:][:dim], p[3*dim:][:dim]
		var s0, s1, s2, s3 float64
		for d, x := range v {
			s0 += p0[d] * x
			s1 += p1[d] * x
			s2 += p2[d] * x
			s3 += p3[d] * x
		}
		sig |= b2u(s0 >= 0)<<b | b2u(s1 >= 0)<<(b+1) | b2u(s2 >= 0)<<(b+2) | b2u(s3 >= 0)<<(b+3)
	}
	for ; b < idx.bits; b++ {
		p := planes[b*dim : (b+1)*dim]
		s := 0.0
		for d, x := range v {
			s += p[d] * x
		}
		sig |= b2u(s >= 0) << b
	}
	return sig
}

// Candidates returns the number of distinct indexed vectors in q's bucket
// across all tables: the vectors an LSH query scores by exact similarity.
func (idx *Index) Candidates(q Vector) (int, error) {
	if len(q) != idx.dim {
		return 0, fmt.Errorf("lsh: query dimension %d ≠ index dimension %d", len(q), idx.dim)
	}
	idx.gen++
	if idx.gen == 0 {
		// Marks from the previous cycle would match the reused values.
		clear(idx.mark)
		idx.gen = 1
	}
	gen, mark, n := idx.gen, idx.mark, 0
	for t := 0; t < idx.tables; t++ {
		r := t<<idx.bits | int(idx.signature(t, q))
		// Stamp without a branch: about two in five IDs were already
		// counted in an earlier table, too many to predict.
		for _, id := range idx.ids[idx.start[r]:idx.start[r+1]] {
			old := mark[id]
			mark[id] = gen
			n += int(b2u(old != gen))
		}
	}
	return n, nil
}

// b2u converts a bool to 0 or 1; the compiler emits a SETcc, not a branch.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// GenerateDataset creates n random unit-ish vectors for tests, benchmarks,
// and the HDSearch service model, clustered so LSH has structure to find:
// vectors are drawn around `clusters` random centroids.
func GenerateDataset(n, dim, clusters int, seed uint64) []Vector {
	stream := rng.NewLabeled(seed, "lsh-dataset")
	if clusters < 1 {
		clusters = 1
	}
	centroids := make([]Vector, clusters)
	for c := range centroids {
		centroids[c] = make(Vector, dim)
		for d := range centroids[c] {
			centroids[c][d] = stream.Normal(0, 1)
		}
	}
	out := make([]Vector, n)
	for i := range out {
		c := centroids[stream.Intn(clusters)]
		v := make(Vector, dim)
		for d := range v {
			v[d] = c[d] + stream.Normal(0, 0.3)
		}
		out[i] = v
	}
	return out
}
