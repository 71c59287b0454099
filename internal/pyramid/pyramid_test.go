package pyramid

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"anc/internal/graph"
	"anc/internal/metric"
)

func randomGraph(rng *rand.Rand, n, extraEdges int) *graph.Graph {
	b := graph.NewBuilder(n)
	// Spanning chain keeps most of the graph connected, plus random extras.
	for v := 1; v < n; v++ {
		b.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
	}
	for i := 0; i < extraEdges; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func randomWeights(rng *rand.Rand, m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 0.1 + rng.Float64()*5
	}
	return w
}

func buildIndex(t testing.TB, g *graph.Graph, w []float64, cfg Config, seed int64) *Index {
	t.Helper()
	ix, err := Build(g, func(e graph.EdgeID) float64 { return w[e] }, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestLevels(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {13, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := Levels(c.n); got != c.want {
			t.Errorf("Levels(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSqrtLevel(t *testing.T) {
	// 2^SqrtLevel(n) should be Θ(√n): within [√n, 2√n] roughly.
	for _, n := range []int{10, 100, 1000, 10000} {
		l := SqrtLevel(n)
		seeds := float64(int(1) << uint(l))
		root := math.Sqrt(float64(n))
		if seeds < root/2 || seeds > root*4 {
			t.Errorf("SqrtLevel(%d) = %d -> %v seeds, not Θ(√n = %v)", n, l, seeds, root)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 10, 10)
	w := randomWeights(rand.New(rand.NewSource(2)), g.M())
	wf := func(e graph.EdgeID) float64 { return w[e] }
	if _, err := Build(g, wf, Config{K: 0, Theta: 0.7}, rand.New(rand.NewSource(3))); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Build(g, wf, Config{K: 2, Theta: 0}, rand.New(rand.NewSource(3))); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := Build(g, wf, Config{K: 2, Theta: 1.5}, rand.New(rand.NewSource(3))); err == nil {
		t.Error("theta>1 accepted")
	}
	bad := func(e graph.EdgeID) float64 { return -1 }
	if _, err := Build(g, bad, DefaultConfig(), rand.New(rand.NewSource(3))); err == nil {
		t.Error("negative weight accepted")
	}
}

// TestBuildMatchesDijkstra: each built partition's distances equal a
// reference multi-source Dijkstra from the same seeds.
func TestBuildMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 40, 60)
	w := randomWeights(rng, g.M())
	ix := buildIndex(t, g, w, DefaultConfig(), 7)
	wf := func(e graph.EdgeID) float64 { return w[e] }
	for p := 0; p < ix.Config().K; p++ {
		for l := 1; l <= ix.Levels(); l++ {
			part := ix.Partition(p, l)
			dist, _ := metric.MultiSourceDijkstra(g, part.Seeds(), wf)
			for v := 0; v < g.N(); v++ {
				if math.Abs(dist[v]-part.Dist(graph.NodeID(v))) > 1e-9 {
					t.Fatalf("p%d l%d dist[%d] = %v, want %v", p, l, v, part.Dist(graph.NodeID(v)), dist[v])
				}
			}
		}
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatalf("freshly built index invalid: %s", msg)
	}
}

// TestSeedCounts: level l has min(2^l, n) distinct seeds.
func TestSeedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 13, 15)
	w := randomWeights(rng, g.M())
	ix := buildIndex(t, g, w, Config{K: 2, Theta: 0.7}, 5)
	if ix.Levels() != 4 { // ⌈log₂ 13⌉ = 4 as in the paper's Figure 2
		t.Fatalf("levels = %d, want 4", ix.Levels())
	}
	for l := 1; l <= ix.Levels(); l++ {
		want := 1 << uint(l)
		if want > 13 {
			want = 13
		}
		seeds := ix.Partition(0, l).Seeds()
		if len(seeds) != want {
			t.Fatalf("level %d has %d seeds, want %d", l, len(seeds), want)
		}
		seen := map[graph.NodeID]bool{}
		for _, s := range seeds {
			if seen[s] {
				t.Fatalf("duplicate seed %d at level %d", s, l)
			}
			seen[s] = true
		}
	}
}

// TestUpdateMaintainsOptimality is the central invariant test: after many
// random weight updates (both increases and decreases), every partition
// still satisfies the full shortest-path optimality certificate, and
// equals a from-scratch rebuild.
func TestUpdateMaintainsOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12+rng.Intn(30), 40)
		w := randomWeights(rng, g.M())
		cfg := Config{K: 2, Theta: 0.7}
		ix := buildIndex(t, g, w, cfg, seed+1)
		for step := 0; step < 40; step++ {
			e := graph.EdgeID(rng.Intn(g.M()))
			factor := 0.2 + rng.Float64()*3 // mix of decreases and increases
			w[e] *= factor
			ix.UpdateEdge(e, w[e])
			if msg := ix.Validate(); msg != "" {
				t.Logf("seed %d step %d: %s", seed, step, msg)
				return false
			}
		}
		// Cross-check distances against reference Dijkstra per partition.
		wf := func(e graph.EdgeID) float64 { return w[e] }
		for p := 0; p < cfg.K; p++ {
			for l := 1; l <= ix.Levels(); l++ {
				part := ix.Partition(p, l)
				dist, _ := metric.MultiSourceDijkstra(g, part.Seeds(), wf)
				for v := 0; v < g.N(); v++ {
					d := part.Dist(graph.NodeID(v))
					if math.IsInf(dist[v], 1) != math.IsInf(d, 1) {
						return false
					}
					if !math.IsInf(d, 1) && math.Abs(dist[v]-d) > 1e-6 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateDecreaseExample mirrors the shape of the paper's Example 6:
// decreasing a bridge edge reroutes part of one Voronoi cell.
func TestUpdateDecreaseExample(t *testing.T) {
	// Path 0-1-2-3-4, seeds {0,4}; initially node 2 belongs to seed 0.
	b := graph.NewBuilder(5)
	for v := 1; v < 5; v++ {
		b.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
	}
	g := b.Build()
	w := []float64{1, 1, 1, 1}
	ix, err := Build(g, func(e graph.EdgeID) float64 { return w[e] }, Config{K: 1, Theta: 0.7}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Force a deterministic partition: rebuild level 1 with seeds {0, 4}.
	part := ix.Partition(0, 1)
	part.seeds = []graph.NodeID{0, 4}
	part.rebuild(ix.scratch)
	if part.Seed(1) != 0 || part.Seed(3) != 4 {
		t.Fatalf("unexpected initial assignment: %v %v", part.Seed(1), part.Seed(3))
	}
	// Decrease edge (3,4) strongly: node 2 should flip to seed 4.
	e := g.FindEdge(3, 4)
	ix.SetWeight(e, 0.1)
	part.applyBatch(ix.scratch, []graph.EdgeID{e}, []float64{1})
	if part.Seed(2) != 4 {
		t.Fatalf("after decrease, seed(2) = %v, want 4", part.Seed(2))
	}
	if msg := part.validate(); msg != "" {
		t.Fatal(msg)
	}
	// Increase it back: node 2 flips back to seed 0.
	ix.SetWeight(e, 10)
	part.applyBatch(ix.scratch, []graph.EdgeID{e}, []float64{0.1})
	if part.Seed(2) != 0 {
		t.Fatalf("after increase, seed(2) = %v, want 0", part.Seed(2))
	}
	if part.Seed(3) != 4 { // 3 stays with 4 via direct (now heavy) edge? dist 10 vs via 0: 3. Flips!
		if part.Seed(3) != 0 {
			t.Fatalf("seed(3) = %v", part.Seed(3))
		}
	}
	if msg := part.validate(); msg != "" {
		t.Fatal(msg)
	}
}

// TestNonTreeEdgeIncreaseIsNoop: increasing a non-tree edge must not touch
// any node (the fast path of Algorithm 3).
func TestNonTreeEdgeIncreaseIsNoop(t *testing.T) {
	// Triangle 0-1-2 with equal weights; seed {0}. One of (0,1),(0,2) is a
	// tree edge pair; (1,2) is never a tree edge.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Build()
	w := []float64{1, 1, 1}
	ix, err := Build(g, func(e graph.EdgeID) float64 { return w[e] }, Config{K: 1, Theta: 0.7}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	part := ix.Partition(0, 1)
	part.seeds = []graph.NodeID{0}
	part.rebuild(ix.scratch)
	e12 := g.FindEdge(1, 2)
	ix.SetWeight(e12, 100)
	changed := part.applyBatch(ix.scratch, []graph.EdgeID{e12}, []float64{1})
	if len(changed) != 0 {
		t.Fatalf("non-tree increase changed nodes: %v", changed)
	}
	if msg := part.validate(); msg != "" {
		t.Fatal(msg)
	}
}

// TestDisconnectedGraph: nodes unreachable from every seed keep seed None
// and infinite distance, through build and updates.
func TestDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5) // component {4,5}; node 3 isolated
	g := b.Build()
	w := []float64{1, 1, 1}
	ix, err := Build(g, func(e graph.EdgeID) float64 { return w[e] }, Config{K: 1, Theta: 0.7}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	part := ix.Partition(0, 1)
	part.seeds = []graph.NodeID{0} // only component {0,1,2} is covered
	part.rebuild(ix.scratch)
	for _, v := range []graph.NodeID{3, 4, 5} {
		if part.Seed(v) != graph.None || !math.IsInf(part.Dist(v), 1) {
			t.Fatalf("node %d should be unreachable", v)
		}
	}
	ix.SetWeight(g.FindEdge(4, 5), 0.5)
	part.applyBatch(ix.scratch, []graph.EdgeID{g.FindEdge(4, 5)}, []float64{1})
	if msg := part.validate(); msg != "" {
		t.Fatal(msg)
	}
}

// TestRescaleInvariance: OnRescale scales stored distances by 1/g and
// leaves every assignment and tree intact; validate() must still pass
// against weights scaled the same way.
func TestRescaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 30, 50)
	w := randomWeights(rng, g.M())
	ix := buildIndex(t, g, w, Config{K: 2, Theta: 0.7}, 13)
	seedsBefore := make([]graph.NodeID, g.N())
	part := ix.Partition(0, 2)
	for v := range seedsBefore {
		seedsBefore[v] = part.Seed(graph.NodeID(v))
	}
	ix.OnRescale(0.5) // distances and weights ×2
	if msg := ix.Validate(); msg != "" {
		t.Fatalf("after rescale: %s", msg)
	}
	for v := range seedsBefore {
		if part.Seed(graph.NodeID(v)) != seedsBefore[v] {
			t.Fatalf("rescale changed assignment of node %d", v)
		}
	}
}

// TestVotesAndSameCluster: vote counting agrees between the poll path and
// the SameCluster helper.
func TestVotesAndSameCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 20, 30)
	w := randomWeights(rng, g.M())
	ix := buildIndex(t, g, w, Config{K: 4, Theta: 0.7}, 23)
	for l := 1; l <= ix.Levels(); l++ {
		for e := 0; e < g.M(); e++ {
			u, v := g.Endpoints(graph.EdgeID(e))
			votes := ix.Votes(graph.EdgeID(e), l)
			if votes < 0 || votes > 4 {
				t.Fatalf("votes out of range: %d", votes)
			}
			if (votes >= ix.MinSupport()) != ix.SameCluster(u, v, l) {
				t.Fatalf("SameCluster disagrees with Votes at level %d edge %d", l, e)
			}
		}
	}
}

// TestVoteTrackerStaysExact: with tracking enabled, tracked counts match a
// fresh recomputation after arbitrary updates.
func TestVoteTrackerStaysExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 15+rng.Intn(15), 30)
		w := randomWeights(rng, g.M())
		ix := buildIndex(t, g, w, Config{K: 3, Theta: 0.7}, seed)
		ix.EnableVoteTracking()
		for step := 0; step < 25; step++ {
			e := graph.EdgeID(rng.Intn(g.M()))
			w[e] *= 0.3 + rng.Float64()*2.5
			ix.UpdateEdge(e, w[e])
		}
		return ix.Validate() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelUpdateMatchesSequential: Lemma 13 — parallel partition
// updates give the same index state as sequential ones.
func TestParallelUpdateMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 40, 80)
	w1 := randomWeights(rng, g.M())
	w2 := append([]float64(nil), w1...)
	seq := buildIndex(t, g, w1, Config{K: 2, Theta: 0.7}, 99)
	par := buildIndex(t, g, w2, Config{K: 2, Theta: 0.7, Parallel: true}, 99)
	par.EnableVoteTracking()
	upd := rand.New(rand.NewSource(77))
	for step := 0; step < 30; step++ {
		e := graph.EdgeID(upd.Intn(g.M()))
		f := 0.3 + upd.Float64()*2
		w1[e] *= f
		w2[e] *= f
		seq.UpdateEdge(e, w1[e])
		par.UpdateEdge(e, w2[e])
	}
	if msg := par.Validate(); msg != "" {
		t.Fatalf("parallel index invalid: %s", msg)
	}
	for p := 0; p < 2; p++ {
		for l := 1; l <= seq.Levels(); l++ {
			ps, pp := seq.Partition(p, l), par.Partition(p, l)
			for v := 0; v < g.N(); v++ {
				ds, dp := ps.Dist(graph.NodeID(v)), pp.Dist(graph.NodeID(v))
				if math.IsInf(ds, 1) != math.IsInf(dp, 1) || (!math.IsInf(ds, 1) && math.Abs(ds-dp) > 1e-9) {
					t.Fatalf("p%d l%d node %d: %v vs %v", p, l, v, ds, dp)
				}
			}
		}
	}
}

// TestReconstructEqualsUpdate: RECONSTRUCT from the same seeds yields the
// same distances as the incremental UPDATE path.
func TestReconstructEqualsUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := randomGraph(rng, 25, 40)
	w := randomWeights(rng, g.M())
	ix := buildIndex(t, g, w, Config{K: 2, Theta: 0.7}, 53)
	for step := 0; step < 20; step++ {
		e := graph.EdgeID(rng.Intn(g.M()))
		w[e] *= 0.4 + rng.Float64()*2
		ix.UpdateEdge(e, w[e])
	}
	distBefore := ix.Partition(0, 2).Dist(5)
	ix.Reconstruct()
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
	if math.Abs(ix.Partition(0, 2).Dist(5)-distBefore) > 1e-9 {
		t.Fatalf("reconstruct changed distance: %v vs %v", ix.Partition(0, 2).Dist(5), distBefore)
	}
}

// TestExtremeWeightUpdates drives weights across twelve orders of
// magnitude — the clamp range of the similarity layer — and checks the
// partitions stay exact.
func TestExtremeWeightUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomGraph(rng, 30, 50)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1
	}
	ix := buildIndex(t, g, w, Config{K: 2, Theta: 0.7}, 73)
	extremes := []float64{1e-9, 1e9, 1, 1e-6, 1e6, 3.14}
	for step := 0; step < 60; step++ {
		e := graph.EdgeID(rng.Intn(g.M()))
		w[e] = extremes[step%len(extremes)]
		ix.UpdateEdge(e, w[e])
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
	wf := func(e graph.EdgeID) float64 { return w[e] }
	for p := 0; p < 2; p++ {
		for l := 1; l <= ix.Levels(); l++ {
			part := ix.Partition(p, l)
			dist, _ := metric.MultiSourceDijkstra(g, part.Seeds(), wf)
			for v := 0; v < g.N(); v++ {
				d := part.Dist(graph.NodeID(v))
				if math.IsInf(dist[v], 1) != math.IsInf(d, 1) {
					t.Fatalf("reachability mismatch at p%d l%d node %d", p, l, v)
				}
				if !math.IsInf(d, 1) && math.Abs(dist[v]-d) > 1e-6*(1+dist[v]) {
					t.Fatalf("p%d l%d node %d: %v vs %v", p, l, v, d, dist[v])
				}
			}
		}
	}
}

// TestNoopUpdateIsFree: setting the same weight must change nothing and
// touch nothing.
func TestNoopUpdateIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := randomGraph(rng, 20, 30)
	w := randomWeights(rng, g.M())
	ix := buildIndex(t, g, w, Config{K: 1, Theta: 0.7}, 83)
	part := ix.Partition(0, 2)
	before := make([]float64, g.N())
	for v := range before {
		before[v] = part.Dist(graph.NodeID(v))
	}
	ix.UpdateEdge(3, w[3]) // same value
	for v := range before {
		if part.Dist(graph.NodeID(v)) != before[v] {
			t.Fatal("no-op update changed distances")
		}
	}
}

// TestMemoryBytesTracksActualSlices holds the Exp 4 estimate to the slices
// the index really owns: the sum of cap × element size over every
// partition's arrays, the shared weights and the serial scratch must be
// within 10 % of MemoryBytes, and the estimate must grow with K.
func TestMemoryBytesTracksActualSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randomGraph(rng, 64, 100)
	w := randomWeights(rng, g.M())
	ix2 := buildIndex(t, g, w, Config{K: 2, Theta: 0.7}, 1)
	ix8 := buildIndex(t, g, w, Config{K: 8, Theta: 0.7}, 1)
	for _, ix := range []*Index{ix2, ix8} {
		actual := int64(cap(ix.weights)) * 8
		for _, pyr := range ix.parts {
			for _, p := range pyr {
				actual += int64(cap(p.seedOf))*4 + int64(cap(p.dist))*8 + int64(cap(p.parent))*4
			}
		}
		s := ix.scratch
		actual += int64(cap(s.changed)+cap(s.stamp)+cap(s.entrySeed)+cap(s.sub)+cap(s.stack)) * 4
		// The heap's entry and position arrays are unexported in pq; read
		// their capacities and element sizes through reflection.
		hv := reflect.ValueOf(s.heap).Elem()
		for _, f := range []string{"es", "pos"} {
			fv := hv.FieldByName(f)
			actual += int64(fv.Cap()) * int64(fv.Type().Elem().Size())
		}
		est := ix.MemoryBytes()
		if diff := float64(est-actual) / float64(actual); diff < -0.10 || diff > 0.10 {
			t.Errorf("K=%d: MemoryBytes() = %d, slices hold %d (%+.1f%%, want within 10%%)",
				ix.cfg.K, est, actual, 100*diff)
		}
	}
	if ix8.MemoryBytes() <= ix2.MemoryBytes() {
		t.Fatal("memory not monotone in K")
	}
}
