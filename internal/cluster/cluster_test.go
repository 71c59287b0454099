package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"anc/internal/graph"
	"anc/internal/pyramid"
)

// twoCliques builds two K5s joined by a single heavy (weak) bridge, with
// edge weights that make intra-clique distances tiny and the bridge huge —
// the index should separate the cliques at any level with ≥ 2 seeds.
func twoCliques(t testing.TB) (*graph.Graph, []float64) {
	t.Helper()
	b := graph.NewBuilder(10)
	add := func(u, v graph.NodeID) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	for u := graph.NodeID(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			add(u, v)
		}
	}
	for u := graph.NodeID(5); u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			add(u, v)
		}
	}
	add(4, 5)
	g := b.Build()
	w := make([]float64, g.M())
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(graph.EdgeID(e))
		if (u < 5) == (v < 5) {
			w[e] = 0.1
		} else {
			w[e] = 1000
		}
	}
	return g, w
}

func buildIndex(t testing.TB, g *graph.Graph, w []float64, k int, seed int64) *pyramid.Index {
	t.Helper()
	ix, err := pyramid.Build(g, func(e graph.EdgeID) float64 { return w[e] },
		pyramid.Config{K: k, Theta: 0.7}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func clusterSet(members []graph.NodeID) map[graph.NodeID]bool {
	s := make(map[graph.NodeID]bool, len(members))
	for _, v := range members {
		s[v] = true
	}
	return s
}

func TestEvenSeparatesCliques(t *testing.T) {
	g, w := twoCliques(t)
	ix := buildIndex(t, g, w, 4, 5)
	// Level 2 has 4 seeds: with overwhelming probability split across both
	// cliques; the bridge edge has weight 1000 so endpoints land in
	// different cells.
	c := Even(ix, 2)
	if c.Labels[0] == c.Labels[9] {
		t.Fatalf("cliques not separated: labels %v", c.Labels)
	}
	// Within one clique, all nodes share a label or are split into cells;
	// at least check the partition covers all nodes exactly once.
	total := 0
	for _, cl := range c.Clusters {
		total += len(cl)
	}
	if total != g.N() {
		t.Fatalf("clusters cover %d nodes, want %d", total, g.N())
	}
}

func TestPowerSeparatesCliques(t *testing.T) {
	g, w := twoCliques(t)
	ix := buildIndex(t, g, w, 4, 5)
	c := Power(ix, 2)
	if c.Labels[0] == c.Labels[9] {
		t.Fatalf("cliques not separated by power clustering")
	}
	total := 0
	for _, cl := range c.Clusters {
		total += len(cl)
	}
	if total != g.N() {
		t.Fatalf("clusters cover %d nodes, want %d", total, g.N())
	}
}

// TestPowerRefinesEven: every power cluster is contained in one even
// cluster (power only follows directed kept edges, a subset of kept
// connectivity).
func TestPowerRefinesEven(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v))
		}
		for i := 0; i < n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		w := make([]float64, g.M())
		for i := range w {
			w[i] = 0.1 + rng.Float64()*3
		}
		ix := buildIndex(t, g, w, 3, seed+7)
		for l := 1; l <= ix.Levels(); l++ {
			even := Even(ix, l)
			power := Power(ix, l)
			for _, cl := range power.Clusters {
				for _, v := range cl[1:] {
					if even.Labels[v] != even.Labels[cl[0]] {
						return false
					}
				}
			}
			if power.NumClusters() < even.NumClusters() {
				return false // refinement can only have >= clusters
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLocalMatchesEven: the local query equals the node's even cluster.
func TestLocalMatchesEven(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v))
		}
		g := b.Build()
		w := make([]float64, g.M())
		for i := range w {
			w[i] = 0.2 + rng.Float64()
		}
		ix := buildIndex(t, g, w, 2, seed+3)
		v := graph.NodeID(rng.Intn(n))
		for l := 1; l <= ix.Levels(); l++ {
			local := Local(ix, l, v)
			even := Even(ix, l)
			var want []graph.NodeID
			for x := 0; x < n; x++ {
				if even.Labels[x] == even.Labels[v] {
					want = append(want, graph.NodeID(x))
				}
			}
			if !reflect.DeepEqual(local, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGranularityMonotone: coarser levels (fewer seeds) cannot produce
// more even clusters than the number of connected components requires —
// and the number of even clusters is non-decreasing in the level, since
// more seeds can only split cells. (Votes make this stochastic; we check
// the weaker invariant that level 1 with 2 seeds per pyramid yields at
// most a few clusters more than components.)
func TestZoomChangesGranularity(t *testing.T) {
	g, w := twoCliques(t)
	ix := buildIndex(t, g, w, 4, 11)
	v := NewView(ix)
	startLevel := v.Level()
	if !v.ZoomIn() && ix.Levels() > startLevel {
		t.Fatal("zoom in failed")
	}
	for v.ZoomOut() {
	}
	if v.Level() != 1 {
		t.Fatalf("zoom out floor = %d, want 1", v.Level())
	}
	if v.ZoomOut() {
		t.Fatal("zoomed out beyond level 1")
	}
	for v.ZoomIn() {
	}
	if v.Level() != ix.Levels() {
		t.Fatalf("zoom in ceiling = %d, want %d", v.Level(), ix.Levels())
	}
	if v.ZoomIn() {
		t.Fatal("zoomed in beyond finest level")
	}
}

func TestSmallestClusterOf(t *testing.T) {
	g, w := twoCliques(t)
	ix := buildIndex(t, g, w, 4, 13)
	members, view := SmallestClusterOf(ix, 0)
	if view.Level() != ix.Levels() {
		t.Fatalf("view level = %d, want finest %d", view.Level(), ix.Levels())
	}
	if len(members) == 0 || !clusterSet(members)[0] {
		t.Fatalf("smallest cluster of 0 = %v", members)
	}
	// All members must be from the same clique as node 0 (bridge weight is
	// hostile at every level).
	for _, m := range members {
		if m >= 5 {
			t.Fatalf("smallest cluster crossed the bridge: %v", members)
		}
	}
}

func TestNewViewAtClamps(t *testing.T) {
	g, w := twoCliques(t)
	ix := buildIndex(t, g, w, 2, 17)
	if v := NewViewAt(ix, -5); v.Level() != 1 {
		t.Fatalf("clamp low = %d", v.Level())
	}
	if v := NewViewAt(ix, 99); v.Level() != ix.Levels() {
		t.Fatalf("clamp high = %d", v.Level())
	}
}

func TestSizesAtLeast(t *testing.T) {
	c := &Clustering{Clusters: [][]graph.NodeID{{0}, {1, 2}, {3, 4, 5}, {6, 7, 8, 9}}}
	if got := c.SizesAtLeast(3); got != 2 {
		t.Fatalf("SizesAtLeast(3) = %d, want 2", got)
	}
	if got := c.SizesAtLeast(1); got != 4 {
		t.Fatalf("SizesAtLeast(1) = %d, want 4", got)
	}
}

// TestPaperExample5Shape reproduces the flavor of Example 5: power
// clustering on a fixed kept-edge set via a 1-pyramid index with
// hand-crafted weights. We verify that searches start at the highest-degree
// node and only absorb unclustered reachable nodes.
func TestPowerOrderDeterminism(t *testing.T) {
	// Star center 0 (degree 4) with leaves 1-4; leaves 3,4 connected.
	b := graph.NewBuilder(5)
	for v := graph.NodeID(1); v <= 4; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(3, 4)
	g := b.Build()
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1
	}
	ix := buildIndex(t, g, w, 1, 19)
	// With one pyramid and θ=0.7 the vote needs 1 pyramid: level 1 has 2
	// seeds; whatever the cells, power clustering must be a partition and
	// deterministic across calls.
	c1 := Power(ix, 1)
	c2 := Power(ix, 1)
	if !reflect.DeepEqual(c1.Labels, c2.Labels) {
		t.Fatal("power clustering not deterministic")
	}
}

// TestClusterSlabDoesNotBleed pins the three-index carve: member lists share
// one slab, so a caller appending to one cluster must get a fresh array
// instead of overwriting the first member of the next. Repaired clusterings,
// power and even, are laid out the same way and held to the same rule.
func TestClusterSlabDoesNotBleed(t *testing.T) {
	g, w := twoCliques(t)
	ix := buildIndex(t, g, w, 4, 7)
	big := benchIndex(t, 400)
	level := pyramid.SqrtLevel(400)
	feed := newFlipFeed(big, level, 13)
	var r Repairer
	repaired := Power(big, level)
	even := Even(big, level)
	for step := 0; step < 50; step++ {
		flips := feed.step(8)
		repaired, _, _ = r.Repair(big, level, repaired, flips)
		even = r.RepairEven(big, level, even, flips)
	}
	for _, cl := range []*Clustering{Power(ix, ix.Levels()), Even(ix, ix.Levels()), repaired, even} {
		if cl.NumClusters() < 2 {
			t.Fatalf("fixture yields %d clusters, need at least 2", cl.NumClusters())
		}
		for i, members := range cl.Clusters {
			if len(members) == 0 || cap(members) != len(members) {
				t.Fatalf("cluster %d: len %d cap %d, want a full non-empty sub-slice", i, len(members), cap(members))
			}
		}
		next := cl.Clusters[1][0]
		_ = append(cl.Clusters[0], -7)
		if cl.Clusters[1][0] != next {
			t.Fatal("append to cluster 0 overwrote cluster 1")
		}
	}
}
