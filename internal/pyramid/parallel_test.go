package pyramid

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"anc/internal/graph"
)

// TestParallelBuildMatchesSequential: the built index does not depend on
// its scheduler. BuildWithSeeds over one graph, one set of weights and one
// set of seed sets — Parallel off and on, at GOMAXPROCS 1 (inline) and 4
// (fanned out) — gives bit-identical seedOf, dist and parent in all K·L
// partitions, and equal vote counts once EnableVoteTracking has counted.
func TestParallelBuildMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 300, 900)
	w := randomWeights(rng, g.M())
	wf := func(e graph.EdgeID) float64 { return w[e] }
	cfg := Config{K: 3, Theta: 0.7}
	seeds := buildIndex(t, g, w, cfg, 99).SeedSets()
	var ref *Index
	for _, procs := range []int{1, 4} {
		for _, parallel := range []bool{false, true} {
			cfg.Parallel = parallel
			prev := runtime.GOMAXPROCS(procs)
			ix, err := BuildWithSeeds(g, wf, cfg, seeds)
			if err == nil {
				ix.EnableVoteTracking()
			}
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if msg := ix.Validate(); msg != "" {
				t.Fatalf("GOMAXPROCS %d parallel=%v: %s", procs, parallel, msg)
			}
			if ref == nil {
				ref = ix
				continue
			}
			if msg := diffIndex(ref, ix); msg != "" {
				t.Fatalf("GOMAXPROCS %d parallel=%v vs serial build: %s", procs, parallel, msg)
			}
		}
	}
}

// diffIndex describes the first difference between two indexes over one
// graph — seeds, distance bits, parents, vote counts — or returns "".
func diffIndex(a, b *Index) string {
	for p := range a.parts {
		for l := range a.parts[p] {
			pa, pb := a.parts[p][l], b.parts[p][l]
			for v := range pa.seedOf {
				if pa.seedOf[v] != pb.seedOf[v] || pa.parent[v] != pb.parent[v] ||
					math.Float64bits(pa.dist[v]) != math.Float64bits(pb.dist[v]) {
					return fmt.Sprintf("p%d l%d node %d: (seed %d, parent %d, dist %v) vs (%d, %d, %v)",
						p, l+1, v, pa.seedOf[v], pa.parent[v], pa.dist[v], pb.seedOf[v], pb.parent[v], pb.dist[v])
				}
			}
		}
	}
	for l := range a.votes.counts {
		for e, c := range a.votes.counts[l] {
			if b.votes.counts[l][e] != c {
				return fmt.Sprintf("level %d edge %d: %d votes vs %d", l+1, e, c, b.votes.counts[l][e])
			}
		}
	}
	return ""
}

// TestBuildWithSeedsValidation: wrong seed-set count is rejected.
func TestBuildWithSeedsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 20, 20)
	w := randomWeights(rng, g.M())
	wf := func(e graph.EdgeID) float64 { return w[e] }
	if _, err := BuildWithSeeds(g, wf, Config{K: 2, Theta: 0.7}, nil); err == nil {
		t.Fatal("accepted empty seed sets")
	}
}

// TestSeedSetsRoundTrip: SeedSets -> BuildWithSeeds reproduces the index.
func TestSeedSetsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := randomGraph(rng, 40, 60)
	w := randomWeights(rng, g.M())
	ix := buildIndex(t, g, w, Config{K: 2, Theta: 0.7}, 7)
	wf := func(e graph.EdgeID) float64 { return w[e] }
	clone, err := BuildWithSeeds(g, wf, Config{K: 2, Theta: 0.7}, ix.SeedSets())
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		for l := 1; l <= ix.Levels(); l++ {
			for v := 0; v < g.N(); v++ {
				if ix.Partition(p, l).Seed(graph.NodeID(v)) != clone.Partition(p, l).Seed(graph.NodeID(v)) {
					t.Fatalf("seed assignment differs at p%d l%d node %d", p, l, v)
				}
			}
		}
	}
}
