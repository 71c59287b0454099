package main

// inputs.go generates every input of the benchmark with math/rand
// sources only: the planted-partition relation graph (the data set, the
// same on every run) and, from -seed, the Zipf, uniform and diurnal
// activation streams and the query scripts. Nothing here imports the
// repo's own generators, so a later change to them cannot change the
// traffic; inputs_sha256 pins what was generated.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"sort"

	"anc"
)

// Graph shape: the TW2 (twitter) counterpart of the repo's efficiency
// suite at N=4096 — average degree 7.47, 2√n planted communities with
// power-law sizes, a fifth of the edges between communities.
//
// The graph is the benchmark's data set and does not depend on -seed:
// drawn per seed, it moved every gated metric with it (quartile spreads
// of 20% to 200% across four seeds, point reads most, because they return
// clusters and the size of the largest one differs from graph to graph).
// The seed drives all traffic on it.
const (
	graphN      = 4096
	graphM      = 15300
	graphK      = 128
	graphMixing = 0.2
	graphSeed   = 1
)

// digest is the running SHA-256 over everything the generators emit.
type digest struct {
	h   hash.Hash
	buf [16]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) act(a anc.Activation) {
	binary.LittleEndian.PutUint32(d.buf[0:], uint32(a.U))
	binary.LittleEndian.PutUint32(d.buf[4:], uint32(a.V))
	binary.LittleEndian.PutUint64(d.buf[8:], math.Float64bits(a.T))
	d.h.Write(d.buf[:16])
}

func (d *digest) op(kind byte, a, b int) {
	d.buf[0] = kind
	binary.LittleEndian.PutUint32(d.buf[1:], uint32(a))
	binary.LittleEndian.PutUint32(d.buf[5:], uint32(b))
	d.h.Write(d.buf[:9])
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// plantedGraph draws a planted-partition graph: k communities whose sizes
// follow a Pareto(1.5) law (at least 3 nodes each), about m·(1−mixing)
// edges inside communities and m·mixing between them. Edges come back
// sorted and distinct with u < v.
func plantedGraph(n, m, k int, mixing float64, rng *rand.Rand) [][2]int {
	// Community sizes: 3 nodes each, the rest shared out by Pareto weight.
	weights := make([]float64, k)
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(1-rng.Float64(), -1/1.5)
		total += weights[i]
	}
	sizes := make([]int, k)
	used := 0
	for i, w := range weights {
		sizes[i] = 3 + int(w/total*float64(n-3*k))
		used += sizes[i]
	}
	for i := 0; used < n; i = (i + 1) % k {
		sizes[i]++
		used++
	}
	start := make([]int, k+1)
	community := make([]int, n)
	for c, s := range sizes {
		start[c+1] = start[c] + s
		for v := start[c]; v < start[c+1]; v++ {
			community[v] = c
		}
	}

	seen := make(map[[2]int]bool, m)
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		e := [2]int{u, v}
		if seen[e] {
			return false
		}
		seen[e] = true
		return true
	}
	// Inside: each community gets a share of the intra-community edges in
	// proportion to its node count, capped by the pairs it has.
	intra := int(float64(m) * (1 - mixing))
	for c, s := range sizes {
		want := intra * s / n
		if pairs := s * (s - 1) / 2; want > pairs {
			want = pairs
		}
		for got, tries := 0, 0; got < want && tries < 50*want; tries++ {
			if add(start[c]+rng.Intn(s), start[c]+rng.Intn(s)) {
				got++
			}
		}
	}
	// Between: uniform pairs from different communities until m is reached.
	for len(seen) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if community[u] != community[v] {
			add(u, v)
		}
	}
	edges := make([][2]int, 0, len(seen))
	for e := range seen {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// stream draws activations over a fixed edge list and feeds each one to
// the inputs digest. The Zipf draw ranks edges by a seeded permutation
// rotated by a fresh offset for every batch, so a run averages over
// thousands of hot sets; with one hot set per run, where its ten edges
// happened to lie decided the cost of every batch (ingest rates between
// 30k and 45k activations a second from one seed to the next).
type stream struct {
	rng   *rand.Rand
	edges [][2]int
	perm  []int
	zipf  *rand.Zipf
	dig   *digest
}

func newStream(edges [][2]int, seed int64, dig *digest) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{rng: rng, edges: edges, dig: dig}
	s.perm = rng.Perm(len(edges))
	s.zipf = rand.NewZipf(rng, 1.5, 1, uint64(len(edges)-1))
	return s
}

func (s *stream) emit(dst []anc.Activation, e int, t float64) []anc.Activation {
	a := anc.Activation{U: s.edges[e][0], V: s.edges[e][1], T: t}
	s.dig.act(a)
	return append(dst, a)
}

// zipfBatch appends count Zipf(1.5)-popular activations at time t.
func (s *stream) zipfBatch(dst []anc.Activation, count int, t float64) []anc.Activation {
	rotate := s.rng.Intn(len(s.perm))
	for i := 0; i < count; i++ {
		dst = s.emit(dst, s.perm[(int(s.zipf.Uint64())+rotate)%len(s.perm)], t)
	}
	return dst
}

// uniformBatch appends count activations on uniformly drawn edges.
func (s *stream) uniformBatch(dst []anc.Activation, count int, t float64) []anc.Activation {
	for i := 0; i < count; i++ {
		dst = s.emit(dst, s.rng.Intn(len(s.edges)), t)
	}
	return dst
}

// Diurnal minute batches (Fig. 9): a sinusoidal base rate between
// diurnalLow and diurnalHigh with period diurnalPeriod minutes, and in
// one minute of twenty a Pareto(1.5) burst, capped at diurnalCap.
const (
	diurnalLow    = 600
	diurnalHigh   = 3000
	diurnalCap    = 6000
	diurnalPeriod = 96
)

// minuteBatch appends the activations of one minute, all stamped with the
// minute number.
func (s *stream) minuteBatch(dst []anc.Activation, minute int) []anc.Activation {
	phase := 2 * math.Pi * float64(minute) / diurnalPeriod
	rate := diurnalLow + (diurnalHigh-diurnalLow)*(0.5+0.5*math.Sin(phase-math.Pi/2))
	if s.rng.Float64() < 0.05 {
		rate *= math.Pow(1-s.rng.Float64(), -1/1.5)
	}
	count := int(rate)
	if count > diurnalCap {
		count = diurnalCap
	}
	return s.zipfBatch(dst, count, float64(minute))
}

// Query kinds, as recorded in the inputs digest.
const (
	qSmallest byte = iota + 1
	qClusterOf
	qDistance
	qAttraction
	qClusters
	qEven
	qZoom
	qRank
)

// node draws a query node and records the query.
func (s *stream) node(kind byte) int {
	v := s.rng.Intn(graphN)
	s.dig.op(kind, v, 0)
	return v
}

// pair draws two query nodes and records the query.
func (s *stream) pair(kind byte) (int, int) {
	u, v := s.rng.Intn(graphN), s.rng.Intn(graphN)
	s.dig.op(kind, u, v)
	return u, v
}
