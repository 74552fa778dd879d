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
// The hyperplanes are stored transposed, as [table][dim][16]: row d of a
// table holds the d-th entry of each of its B planes, in lanes 0..B-1,
// and zeros in the lanes past B. One call hashes a vector in every table.
// On amd64 hosts with AVX an assembly kernel does it: for each d in
// dimension order it broadcasts v[d], multiplies row d by it (VMULPD) and
// adds the products (VADDPD) into four 4-lane accumulators, one lane per
// plane. Every other host runs a pure-Go kernel over the same layout.
// Both compute each projection exactly as a plain one-plane dot product
// does: each plane[d]*v[d] rounded, then added to a sum that starts at 0
// and runs in dimension order. The order matters: a reordered sum rounds
// differently, can flip a signature bit near zero, and would move the
// buckets. A fused multiply-add would too, since it rounds each step once
// instead of twice, so the kernel uses none.
//
// A signature bit is set when its projection is ≥ 0. The AVX kernel
// compares each sum with zero under the ordered, quiet greater-or-equal
// predicate (VCMPPD GE_OQ) and gathers the results with VMOVMSKPD. That
// predicate gives what Go's >= 0 gives on every input: −0 ≥ 0 holds, so
// −0 sets the bit, and a NaN compares unordered, so it clears the bit.
// The package checks once, at start-up, that the host may run the
// kernel: CPUID leaf 1 must report OSXSAVE and AVX, and XCR0 must show
// that the OS saves the SSE and AVX register state (bits 1 and 2).
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

// lanes is the width of one row of a table's transposed planes: maxBits
// float64s, four 4-lane AVX registers.
const lanes = maxBits

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
// planes holds the hyperplanes as [table][dim][lanes]: entry
// (t*dim+d)*lanes+b is the d-th component of table t's plane b, and the
// lanes from Bits up are zero. A table's planes are dim*lanes contiguous
// float64s, 8 KB at HDSearch's 64 dimensions.
//
// The buckets form one CSR over rows t<<Bits | signature: row r's IDs are
// ids[start[r]:start[r+1]], in ascending order. Table t's 2^Bits+1 offsets
// are start[t<<Bits : (t+1)<<Bits+1], so neighbouring tables share one.
//
// An Index is not safe for concurrent use: Candidates writes the index's
// sigs and mark arrays. Each owner builds its own index and queries it
// from one goroutine at a time; every HDSearch replica builds its own, and
// one worker or one shard drives it.
type Index struct {
	dim, tables, bits int
	planes            []float64 // [table][dim][lanes] hyperplane normals
	start             []int32   // tables<<bits + 1 row offsets into ids
	ids               []int32
	sigs              []uint32 // scratch: a vector's signature in each table
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
		planes: make([]float64, cfg.Tables*cfg.Dim*lanes),
		start:  make([]int32, cfg.Tables<<cfg.Bits+1),
		ids:    make([]int32, cfg.Tables*len(data)),
		sigs:   make([]uint32, cfg.Tables),
		mark:   make([]uint32, len(data)),
	}
	// Draw in the [table][bit][dim] order the planes have always been
	// drawn in, so each keeps its values; plane b of a table goes down
	// lane b of the table's rows.
	stream := rng.NewLabeled(cfg.Seed, "lsh-hyperplanes")
	for t := 0; t < cfg.Tables; t++ {
		rows := idx.planes[t*cfg.Dim*lanes : (t+1)*cfg.Dim*lanes]
		for b := 0; b < cfg.Bits; b++ {
			for d := 0; d < cfg.Dim; d++ {
				rows[d*lanes+b] = stream.Normal(0, 1)
			}
		}
	}

	// Counting sort by row: hash every vector once, count each row's
	// entries, turn the counts into offsets, then place the IDs in order.
	rows := make([]int32, len(idx.ids)) // [vector][table] row
	for i, v := range data {
		idx.signatures(v, idx.sigs)
		for t, sig := range idx.sigs {
			r := int32(t<<cfg.Bits | int(sig))
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

// signatures hashes v in every table: sigs[t] gets v's signature in table
// t, whose bit b is set when v's projection onto the table's plane b is
// ≥ 0. v must have the index's dimension, and sigs one entry per table.
func (idx *Index) signatures(v Vector, sigs []uint32) {
	// The AVX kernel checks no bounds: it reads a row of planes for every
	// table and dimension and writes every sigs entry.
	if len(v) != idx.dim || len(sigs) != idx.tables {
		panic(fmt.Sprintf("lsh: signatures of a %d-dim vector in %d tables, index has %d and %d", len(v), len(sigs), idx.dim, idx.tables))
	}
	if useAVX {
		signaturesAVX(idx.planes, v, sigs, idx.bits)
		return
	}
	signaturesGo(idx.planes, v, sigs, idx.bits)
}

// signaturesGo is the portable kernel behind signatures: it hashes v in
// len(sigs) tables of bits-bit signatures over planes in Index's layout,
// four lanes per pass over v. A width that is not a multiple of four
// computes the zero lanes after it and masks them off.
func signaturesGo(planes []float64, v Vector, sigs []uint32, bits int) {
	stride := len(v) * lanes
	for t := range sigs {
		rows := planes[t*stride : (t+1)*stride]
		var sig uint32
		for b := 0; b < bits; b += 4 {
			sig |= signs4(rows[b:], v) << b
		}
		sigs[t] = sig & (1<<bits - 1)
	}
}

// signs4 returns the sign bits of v's projections onto the four planes
// in lanes 0-3 of rows: bit k is set when the projection onto lane k's
// plane is ≥ 0. Each lane sums into its own accumulator from 0 in
// dimension order.
func signs4(rows []float64, v Vector) uint32 {
	var s0, s1, s2, s3 float64
	for d, x := range v {
		p := (*[4]float64)(rows[d*lanes : d*lanes+4])
		s0 += p[0] * x
		s1 += p[1] * x
		s2 += p[2] * x
		s3 += p[3] * x
	}
	return b2u(s0 >= 0) | b2u(s1 >= 0)<<1 | b2u(s2 >= 0)<<2 | b2u(s3 >= 0)<<3
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
	idx.signatures(q, idx.sigs)
	gen, mark, n := idx.gen, idx.mark, 0
	for t, sig := range idx.sigs {
		r := t<<idx.bits | int(sig)
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

// GenerateDataset creates n random vectors for tests, benchmarks, and the
// HDSearch service model, clustered so LSH has structure to find: each is
// one of `clusters` random centroids, with N(0, 1) components, plus
// N(0, 0.3) noise in every dimension. A vector's norm is about
// √(1.09·dim), ≈ 8 at HDSearch's 64 dimensions.
func GenerateDataset(n, dim, clusters int, seed uint64) []Vector {
	stream := rng.NewLabeled(seed, "lsh-dataset")
	if clusters < 1 {
		clusters = 1
	}
	centroids := make([]Vector, clusters)
	for c := range centroids {
		centroids[c] = make(Vector, dim)
		stream.FillNormal(centroids[c], 0, 1)
	}
	out := make([]Vector, n)
	for i := range out {
		c := centroids[stream.Intn(clusters)]
		v := make(Vector, dim)
		stream.FillNormal(v, 0, 0.3)
		for d := range v {
			v[d] += c[d]
		}
		out[i] = v
	}
	return out
}
