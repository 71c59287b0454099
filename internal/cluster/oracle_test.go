package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"anc/internal/graph"
	"anc/internal/pyramid"
)

// The differential oracle of the clustering kernels: the definitions,
// evaluated directly. Every edge is scanned from both ends over Neighbors,
// power clustering's direction is a DegreePos test, and the keep decision is
// Votes(e, l) ≥ MinSupport() — no Voter, no Up/Down lists, no shared slab.

func referencePass(ix *pyramid.Index, e graph.EdgeID, level int) bool {
	return ix.Votes(e, level) >= ix.MinSupport()
}

// referenceEven is the even clustering by definition.
func referenceEven(ix *pyramid.Index, level int) *Clustering {
	g := ix.Graph()
	labels := make([]int32, g.N())
	for i := range labels {
		labels[i] = -1
	}
	var clusters [][]graph.NodeID
	var queue []graph.NodeID
	for v := 0; v < g.N(); v++ {
		if labels[v] >= 0 {
			continue
		}
		id := int32(len(clusters))
		labels[v] = id
		queue = append(queue[:0], graph.NodeID(v))
		var members []graph.NodeID
		for len(queue) > 0 {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			members = append(members, x)
			for _, h := range g.Neighbors(x) {
				if labels[h.To] < 0 && referencePass(ix, h.Edge, level) {
					labels[h.To] = id
					queue = append(queue, h.To)
				}
			}
		}
		clusters = append(clusters, members)
	}
	return &Clustering{Labels: labels, Clusters: clusters}
}

// referencePower is the power clustering by definition, with the degree
// rank's inverse recomputed from the rank.
func referencePower(ix *pyramid.Index, level int) *Clustering {
	g := ix.Graph()
	rank := g.DegreeRank()
	pos := make([]int32, g.N())
	for i, v := range rank {
		pos[v] = int32(i)
	}
	labels := make([]int32, g.N())
	for i := range labels {
		labels[i] = -1
	}
	var clusters [][]graph.NodeID
	var stack []graph.NodeID
	for _, v := range rank {
		if labels[v] >= 0 {
			continue
		}
		id := int32(len(clusters))
		labels[v] = id
		stack = append(stack[:0], v)
		var members []graph.NodeID
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, x)
			for _, h := range g.Neighbors(x) {
				if pos[x] < pos[h.To] && labels[h.To] < 0 && referencePass(ix, h.Edge, level) {
					labels[h.To] = id
					stack = append(stack, h.To)
				}
			}
		}
		clusters = append(clusters, members)
	}
	return &Clustering{Labels: labels, Clusters: clusters}
}

// oracleState is one index state as the oracle saw it: each edge's pass
// state at each level, and the power and even clusterings the kernels
// returned there, checked equal to the oracle's — the baselines a repair
// starts from, as the cache keeps them.
type oracleState struct {
	power, even []*Clustering
	pass        [][]bool
}

// checkOracle holds the five kernels to the oracle at every level of ix:
// Power, Even and, for every node, Local at the current state, and
// Repair/RepairEven from prev's clusterings along the edges whose pass
// state differs from prev's. It returns the oracle's current state.
func checkOracle(t *testing.T, ix *pyramid.Index, prev *oracleState, step int) *oracleState {
	t.Helper()
	g := ix.Graph()
	levels := ix.Levels()
	cur := &oracleState{power: make([]*Clustering, levels), even: make([]*Clustering, levels), pass: make([][]bool, levels)}
	var r Repairer
	for l := 1; l <= levels; l++ {
		power, even := referencePower(ix, l), referenceEven(ix, l)
		pass := make([]bool, g.M())
		var flips []graph.EdgeID
		for e := range pass {
			pass[e] = referencePass(ix, graph.EdgeID(e), l)
			if prev != nil && pass[e] != prev.pass[l-1][e] {
				flips = append(flips, graph.EdgeID(e))
			}
		}
		cur.power[l-1], cur.even[l-1], cur.pass[l-1] = Power(ix, l), Even(ix, l), pass
		mustEqual(t, step, cur.power[l-1], power)
		mustEqual(t, step, cur.even[l-1], even)
		for v := 0; v < g.N(); v++ {
			want := slices.Clone(even.Clusters[even.Labels[v]])
			slices.Sort(want)
			if got := Local(ix, l, graph.NodeID(v)); !slices.Equal(got, want) {
				t.Fatalf("step %d level %d: Local(%d) = %v, want %v", step, l, v, got, want)
			}
		}
		if prev != nil {
			repaired, _, _ := r.Repair(ix, l, prev.power[l-1], flips)
			mustEqual(t, step, repaired, power)
			mustEqual(t, step, r.RepairEven(ix, l, prev.even[l-1], flips), even)
		}
	}
	return cur
}

// oracleIndex builds an index over a random sparse graph whose last nodes
// are isolated and whose few distinct degrees make most rank positions
// ties, with several components so some nodes sit under no seed.
func oracleIndex(t *testing.T, rng *rand.Rand, cfg pyramid.Config) *pyramid.Index {
	t.Helper()
	n := 30 + rng.Intn(50)
	linked := n - 1 - rng.Intn(5)
	b := graph.NewBuilder(n)
	for i := 0; i < 3*linked/2; i++ {
		u, v := graph.NodeID(rng.Intn(linked)), graph.NodeID(rng.Intn(linked))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	w := make([]float64, g.M())
	for e := range w {
		w[e] = 0.1 + rng.Float64()*5
	}
	ix, err := pyramid.Build(g, func(e graph.EdgeID) float64 { return w[e] }, cfg, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestKernelsMatchOracle: the kernels' binding, rank-directed lists and
// shared slab change the cost of a clustering, never the clustering. Power,
// Even, Local, Repair and RepairEven are byte-identical to the oracle at
// every level, with and without a VoteTracker, on random histories of
// batched updates — and again after an ANCF-style SetWeight + Reconstruct
// and on an index rebuilt from the seed sets and weights as snapshot
// restore rebuilds it, then updated further, so a binding can never read a
// partition's seeds from before a rebuild or from another index.
func TestKernelsMatchOracle(t *testing.T) {
	for _, tracked := range []bool{false, true} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := pyramid.DefaultConfig()
			if seed%3 == 2 { // an ensemble where a vote needs every pyramid
				cfg = pyramid.Config{K: 3, Theta: 1}
			}
			ix := oracleIndex(t, rng, cfg)
			if tracked {
				ix.EnableVoteTracking()
			}
			m := ix.Graph().M()
			update := func(ix *pyramid.Index) {
				var edges []graph.EdgeID
				var weights []float64
				for _, e := range rng.Perm(m)[:1+rng.Intn(m/2+1)] {
					edges = append(edges, graph.EdgeID(e))
					weights = append(weights, 0.05+rng.Float64()*5)
				}
				ix.UpdateEdges(edges, weights)
			}
			step := 0
			st := checkOracle(t, ix, nil, step)
			for ; step < 4; step++ {
				update(ix)
				st = checkOracle(t, ix, st, step)
			}
			for _, e := range rng.Perm(m)[:m/3] {
				ix.SetWeight(graph.EdgeID(e), 0.05+rng.Float64()*5)
			}
			ix.Reconstruct()
			step++
			st = checkOracle(t, ix, st, step)

			loaded, err := pyramid.BuildWithSeeds(ix.Graph(), ix.Weight, ix.Config(), ix.SeedSets())
			if err != nil {
				t.Fatal(err)
			}
			if tracked {
				loaded.EnableVoteTracking()
			}
			for i := 0; i < 3; i++ {
				step++
				st = checkOracle(t, loaded, st, step)
				update(loaded)
			}
		}
	}
}
