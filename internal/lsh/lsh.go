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
// The index counts a query's candidates and does not rank them. The
// HDSearch model reads only that count: it sets the bucket's search cost,
// and min(top-k, count) sets the response size. The ranking a real bucket
// performs, exact cosine similarity over the candidates, lives in the
// package's tests as the oracle the count is checked against, together
// with the brute-force scan that measures the index's recall.
package lsh

import (
	"fmt"

	"repro/internal/rng"
)

// Vector is a dense feature vector.
type Vector []float64

// Dot returns the inner product of two equal-length vectors.
func (v Vector) Dot(u Vector) float64 {
	s := 0.0
	for i := range v {
		s += v[i] * u[i]
	}
	return s
}

// Config sizes the index.
type Config struct {
	Dim    int // vector dimensionality
	Tables int // number of hash tables (L)
	Bits   int // signature bits per table (B), ≤ 64
	Seed   uint64
}

// Index is an LSH index over cosine similarity. Vector IDs are their Add
// order, from 0.
//
// An Index is not safe for concurrent use: Candidates writes the index's
// mark array. Each owner builds its own index and queries it from one
// goroutine at a time; every HDSearch replica builds its own, and one
// worker or one shard drives it.
type Index struct {
	cfg    Config
	planes [][]Vector // [table][bit] hyperplane normals
	tables []map[uint64][]int
	// mark[id] == gen once Candidates has counted vector id for the
	// current query. gen starts each query one higher, so no reset is
	// needed until it wraps.
	mark []uint32
	gen  uint32
}

// New creates an empty index.
func New(cfg Config) (*Index, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("lsh: dimension must be ≥1, got %d", cfg.Dim)
	}
	if cfg.Tables < 1 || cfg.Bits < 1 || cfg.Bits > 64 {
		return nil, fmt.Errorf("lsh: need ≥1 table and 1..64 bits, got L=%d B=%d", cfg.Tables, cfg.Bits)
	}
	idx := &Index{cfg: cfg}
	stream := rng.NewLabeled(cfg.Seed, "lsh-hyperplanes")
	idx.planes = make([][]Vector, cfg.Tables)
	idx.tables = make([]map[uint64][]int, cfg.Tables)
	for t := 0; t < cfg.Tables; t++ {
		idx.planes[t] = make([]Vector, cfg.Bits)
		for b := 0; b < cfg.Bits; b++ {
			plane := make(Vector, cfg.Dim)
			for d := range plane {
				plane[d] = stream.Normal(0, 1)
			}
			idx.planes[t][b] = plane
		}
		idx.tables[t] = make(map[uint64][]int)
	}
	return idx, nil
}

// Len returns the number of indexed vectors, which is the ID the next Add
// assigns.
func (idx *Index) Len() int { return len(idx.mark) }

// signature hashes v in table t.
func (idx *Index) signature(t int, v Vector) uint64 {
	var sig uint64
	for b, plane := range idx.planes[t] {
		if plane.Dot(v) >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// Add indexes v under the ID Len(). The index keeps v's bucket
// memberships, not v.
func (idx *Index) Add(v Vector) error {
	if len(v) != idx.cfg.Dim {
		return fmt.Errorf("lsh: vector dimension %d ≠ index dimension %d", len(v), idx.cfg.Dim)
	}
	id := len(idx.mark)
	idx.mark = append(idx.mark, 0)
	for t := range idx.tables {
		sig := idx.signature(t, v)
		idx.tables[t][sig] = append(idx.tables[t][sig], id)
	}
	return nil
}

// Candidates returns the number of distinct indexed vectors in q's bucket
// across all tables: the vectors an LSH query scores by exact similarity.
func (idx *Index) Candidates(q Vector) (int, error) {
	if len(q) != idx.cfg.Dim {
		return 0, fmt.Errorf("lsh: query dimension %d ≠ index dimension %d", len(q), idx.cfg.Dim)
	}
	idx.gen++
	if idx.gen == 0 {
		// Marks from the previous cycle would match the reused values.
		clear(idx.mark)
		idx.gen = 1
	}
	gen, n := idx.gen, 0
	for t, table := range idx.tables {
		for _, id := range table[idx.signature(t, q)] {
			if idx.mark[id] != gen {
				idx.mark[id] = gen
				n++
			}
		}
	}
	return n, nil
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
