package analytics

import (
	"math"
	"reflect"
	"testing"

	"anc/internal/cluster"
	"anc/internal/floats"
	"anc/internal/graph"
	"anc/internal/ring"
)

// buildGraph assembles a graph from an edge list.
func buildGraph(t testing.TB, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// unitWeight weights every edge 1.
func unitWeight(graph.EdgeID) float64 { return 1 }

// TestTieRankStarOracle checks the power iteration against the closed
// form for the unit-weight star K_{1,3}: with center c and leaves l,
// A·x = λx gives λ = √3, x = (1/√2, 1/√6, 1/√6, 1/√6).
func TestTieRankStarOracle(t *testing.T) {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	r := ComputeRank(g, unitWeight, 0, DefaultRankConfig())
	if !r.Converged {
		t.Fatalf("star did not converge in %d iters", r.Iters)
	}
	want := []float64{1 / math.Sqrt2, 1 / math.Sqrt(6), 1 / math.Sqrt(6), 1 / math.Sqrt(6)}
	for v, w := range want {
		if !floats.Near(r.Scores[v], w, 1e-9) {
			t.Fatalf("node %d: score %v, want %v", v, r.Scores[v], w)
		}
	}
}

// TestTieRankPathOracle checks the path P3: eigenvector (1, √2, 1)/2
// at λ = √2.
func TestTieRankPathOracle(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	r := ComputeRank(g, unitWeight, 0, DefaultRankConfig())
	want := []float64{0.5, math.Sqrt2 / 2, 0.5}
	for v, w := range want {
		if !floats.Near(r.Scores[v], w, 1e-9) {
			t.Fatalf("node %d: score %v, want %v", v, r.Scores[v], w)
		}
	}
}

// TestTieRankBruteForceOracle compares the capped iteration against a
// long-horizon dense-matrix power iteration on a weighted graph — the
// brute-force eigenvector oracle of the acceptance criteria.
func TestTieRankBruteForceOracle(t *testing.T) {
	const n = 12
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	edges = append(edges, [2]int{0, 6}, [2]int{2, 9}, [2]int{3, 8}, [2]int{1, 7})
	g := buildGraph(t, n, edges)
	weight := func(e graph.EdgeID) float64 { return 0.25 + float64(e%7)*0.35 }

	// Dense brute force: y = A·x repeated far past convergence.
	A := make([][]float64, n)
	for i := range A {
		A[i] = make([]float64, n)
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(graph.EdgeID(e))
		A[u][v] = weight(graph.EdgeID(e))
		A[v][u] = A[u][v]
	}
	// A deliberately different diagonal shift than ComputeRank's: any
	// positive shift leaves the eigenvector unchanged, so agreement here
	// also checks that the implementation's shift is inert.
	maxRow := 0.0
	for i := range A {
		row := 0.0
		for j := range A[i] {
			row += A[i][j]
		}
		if row > maxRow {
			maxRow = row
		}
	}
	for i := range A {
		A[i][i] = maxRow
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	for iter := 0; iter < 10000; iter++ {
		for i := 0; i < n; i++ {
			acc := 0.0
			for j := 0; j < n; j++ {
				acc += A[i][j] * x[j]
			}
			y[i] = acc
		}
		norm := 0.0
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		for i := range y {
			y[i] /= norm
		}
		x, y = y, x
	}

	r := ComputeRank(g, weight, 0, DefaultRankConfig())
	if !r.Converged {
		t.Fatalf("no convergence in %d iters", r.Iters)
	}
	for v := 0; v < n; v++ {
		if !floats.Near(r.Scores[v], x[v], 1e-8) {
			t.Fatalf("node %d: score %v, brute force %v", v, r.Scores[v], x[v])
		}
	}
}

// TestTieRankDeterministic asserts two computations over the same
// inputs agree bit for bit.
func TestTieRankDeterministic(t *testing.T) {
	g := buildGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	weight := func(e graph.EdgeID) float64 { return 1 + float64(e)*0.1 }
	a := ComputeRank(g, weight, 1, DefaultRankConfig())
	b := ComputeRank(g, weight, 1, DefaultRankConfig())
	for v := range a.Scores {
		if !floats.Eq(a.Scores[v], b.Scores[v]) {
			t.Fatalf("node %d: %v vs %v", v, a.Scores[v], b.Scores[v])
		}
	}
	if a.Iters != b.Iters || a.Converged != b.Converged {
		t.Fatalf("meta mismatch: %+v vs %+v", a, b)
	}
}

// TestTopKOrder checks the deterministic top-k order: score descending,
// node ascending on ties, k clamped.
func TestTopKOrder(t *testing.T) {
	scores := []float64{0.3, 0.7, 0.3, 0.9, 0.1}
	top := TopK(scores, 4)
	wantNodes := []graph.NodeID{3, 1, 0, 2}
	for i, w := range wantNodes {
		if top[i].Node != w {
			t.Fatalf("rank %d: node %d, want %d (%v)", i, top[i].Node, w, top)
		}
	}
	if got := TopK(scores, 99); len(got) != len(scores) {
		t.Fatalf("clamped k: %d entries, want %d", len(got), len(scores))
	}
	if got := TopK(scores, 0); len(got) != 0 {
		t.Fatalf("k=0: %d entries", len(got))
	}
}

// TestTopKGroups checks per-cluster top-k against the cluster order.
func TestTopKGroups(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.4, 0.8}
	cl := mkClustering(5, [][]graph.NodeID{{0, 1, 2}, {3, 4}})
	groups := TopKGroups(scores, cl, 2)
	if len(groups) != 2 {
		t.Fatalf("%d groups", len(groups))
	}
	if groups[0][0].Node != 1 || groups[0][1].Node != 2 {
		t.Fatalf("group 0: %v", groups[0])
	}
	if groups[1][0].Node != 4 || groups[1][1].Node != 3 {
		t.Fatalf("group 1: %v", groups[1])
	}
}

// mkClustering builds a Clustering over n nodes; nodes outside the
// given clusters become singletons appended after them.
func mkClustering(n int, clusters [][]graph.NodeID) *cluster.Clustering {
	cl := &cluster.Clustering{Labels: make([]int32, n)}
	for i := range cl.Labels {
		cl.Labels[i] = -1
	}
	for i, m := range clusters {
		for _, v := range m {
			cl.Labels[v] = int32(i)
		}
		cl.Clusters = append(cl.Clusters, m)
	}
	for v := 0; v < n; v++ {
		if cl.Labels[v] == -1 {
			cl.Labels[v] = int32(len(cl.Clusters))
			cl.Clusters = append(cl.Clusters, []graph.NodeID{graph.NodeID(v)})
		}
	}
	return cl
}

// observe seeds a tracker on first use and diffs on subsequent calls.
func events(t *testing.T, tr *Tracker, states ...*cluster.Clustering) []Event {
	t.Helper()
	for i, s := range states {
		if i == 0 {
			tr.Seed(s)
			continue
		}
		tr.Observe(s, float64(i))
	}
	evs, _, _ := tr.Events(0)
	return evs
}

// TestEvolutionGrowShrink: one node migrating between two mutually
// matched clusters emits exactly grow + shrink.
func TestEvolutionGrowShrink(t *testing.T) {
	tr := NewTracker(2, DefaultTrackerConfig())
	old := mkClustering(10, [][]graph.NodeID{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	cur := mkClustering(10, [][]graph.NodeID{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}})
	evs := events(t, tr, old, cur)
	if len(evs) != 2 {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].Type != EventGrow || evs[0].Node != 0 || evs[0].Size != 6 || evs[0].PrevSize != 5 {
		t.Fatalf("grow: %+v", evs[0])
	}
	if evs[1].Type != EventShrink || evs[1].Node != 6 || evs[1].Size != 4 || evs[1].PrevSize != 5 {
		t.Fatalf("shrink: %+v", evs[1])
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("seqs: %+v", evs)
	}
}

// TestEvolutionSplitMerge: a cluster breaking in two emits one split;
// fusing back emits one merge — no redundant size events.
func TestEvolutionSplitMerge(t *testing.T) {
	tr := NewTracker(3, DefaultTrackerConfig())
	whole := mkClustering(10, [][]graph.NodeID{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}})
	halves := mkClustering(10, [][]graph.NodeID{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	evs := events(t, tr, whole, halves, whole)
	if len(evs) != 2 {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].Type != EventSplit || evs[0].Node != 0 || evs[0].PrevSize != 10 || evs[0].Size != 2 {
		t.Fatalf("split: %+v", evs[0])
	}
	if evs[1].Type != EventMerge || evs[1].Node != 0 || evs[1].Size != 10 || evs[1].PrevSize != 2 {
		t.Fatalf("merge: %+v", evs[1])
	}
	if evs[0].Level != 3 || evs[1].Level != 3 {
		t.Fatalf("levels: %+v", evs)
	}
}

// TestEvolutionBirthDeath: dissolving into noise is a death; condensing
// out of noise is a birth.
func TestEvolutionBirthDeath(t *testing.T) {
	tr := NewTracker(1, DefaultTrackerConfig())
	old := mkClustering(12, [][]graph.NodeID{{0, 1, 2, 3}})
	cur := mkClustering(12, [][]graph.NodeID{{8, 9, 10, 11}})
	evs := events(t, tr, old, cur)
	if len(evs) != 2 {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].Type != EventDeath || evs[0].Node != 0 || evs[0].PrevSize != 4 || evs[0].Size != 0 {
		t.Fatalf("death: %+v", evs[0])
	}
	if evs[1].Type != EventBirth || evs[1].Node != 8 || evs[1].Size != 4 || evs[1].PrevSize != 0 {
		t.Fatalf("birth: %+v", evs[1])
	}
}

// TestEvolutionContinuationQuiet: an unchanged clustering — and one
// with churn only below MinSize — emits nothing.
func TestEvolutionContinuationQuiet(t *testing.T) {
	tr := NewTracker(1, DefaultTrackerConfig())
	a := mkClustering(8, [][]graph.NodeID{{0, 1, 2, 3}})
	b := mkClustering(8, [][]graph.NodeID{{0, 1, 2, 3}})
	evs := events(t, tr, a, b, a)
	if len(evs) != 0 {
		t.Fatalf("events on continuation: %+v", evs)
	}
}

// flipPast seeds a fresh tracker and observes a 4-member cluster flipping
// between two node sets until the ring has overwritten its oldest extra
// events: each flip emits a death and a birth.
func flipPast(extra int) *Tracker {
	tr := NewTracker(1, DefaultTrackerConfig())
	a := mkClustering(12, [][]graph.NodeID{{0, 1, 2, 3}})
	b := mkClustering(12, [][]graph.NodeID{{8, 9, 10, 11}})
	tr.Seed(a)
	for i := 0; i < (ring.Cap+extra)/2; i++ {
		tr.Observe([]*cluster.Clustering{b, a}[i%2], float64(i))
	}
	return tr
}

// TestEvolutionRingOverflow: the bounded ring overwrites its oldest
// events and counts every loss; the cursor read is non-draining.
func TestEvolutionRingOverflow(t *testing.T) {
	tr := flipPast(2)
	const seq = ring.Cap + 2
	evs, s, dropped := tr.Events(0)
	if s != seq || dropped != 2 {
		t.Fatalf("seq %d dropped %d, want %d and 2", s, dropped, seq)
	}
	if len(evs) != ring.Cap || evs[0].Seq != 3 || evs[len(evs)-1].Seq != seq {
		t.Fatalf("ring: %d events %d..%d", len(evs), evs[0].Seq, evs[len(evs)-1].Seq)
	}
	// Cursor semantics: the same read again, then a strict subset.
	again, _, _ := tr.Events(0)
	if len(again) != ring.Cap {
		t.Fatalf("drained on read: %d events", len(again))
	}
	tail, _, _ := tr.Events(seq - 1)
	if len(tail) != 1 || tail[0].Seq != seq {
		t.Fatalf("since=seq-1: %+v", tail)
	}
	if tr.DroppedTotal() != 2 {
		t.Fatalf("dropped total %d", tr.DroppedTotal())
	}
}

// TestEventsCursorReadsOnlyItsSuffix: buffered sequence numbers are
// contiguous, so a cursor poll locates its answer instead of scanning the
// ring, and allocates exactly what it returns — also across the wrap point,
// and for a cursor older than anything still buffered.
func TestEventsCursorReadsOnlyItsSuffix(t *testing.T) {
	tr := flipPast(26) // wrapped: the oldest event sits mid-ring
	all, seq, dropped := tr.Events(0)
	if seq != ring.Cap+26 || dropped != 26 || len(all) != ring.Cap || all[0].Seq != 27 || all[len(all)-1].Seq != seq {
		t.Fatalf("full read: %d events %d..%d, seq %d dropped %d", len(all), all[0].Seq, all[len(all)-1].Seq, seq, dropped)
	}
	for i, e := range all {
		if e.Seq != uint64(27+i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	for _, since := range []uint64{0, 5, 26} { // all older than the ring's tail
		old, s, d := tr.Events(since)
		if s != seq || d != dropped || !reflect.DeepEqual(old, all) {
			t.Fatalf("since=%d: %d events, seq %d dropped %d; want everything buffered", since, len(old), s, d)
		}
	}
	for _, since := range []uint64{26, 27, 1000, ring.Cap, ring.Cap + 25, seq, seq + 2} {
		got, _, _ := tr.Events(since)
		want := all[min(since, seq)-26:]
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("since=%d: got %d events, want %d", since, len(got), len(want))
		}
	}
	var tail []Event
	if n := testing.AllocsPerRun(100, func() { tail, _, _ = tr.Events(seq - 3) }); n > 1 {
		t.Fatalf("a 3-event poll of a full ring allocates %v times, want at most 1", n)
	}
	if len(tail) != 3 || cap(tail) != 3 || tail[0].Seq != seq-2 {
		t.Fatalf("since=seq-3: len %d cap %d first seq %d, want exactly the last 3", len(tail), cap(tail), tail[0].Seq)
	}
}

// TestNilSafety: every probe-layer method tolerates nil receivers.
func TestNilSafety(t *testing.T) {
	var c *RankCache
	if _, ok := c.Get(); ok {
		t.Fatal("nil cache hit")
	}
	c.Store(&Rank{})
	c.Invalidate()
	c.Instrument(nil)
	var tr *Tracker
	tr.Seed(nil)
	tr.Observe(nil, 0)
	if evs, seq, dropped := tr.Events(0); evs != nil || seq != 0 || dropped != 0 {
		t.Fatal("nil tracker events")
	}
	if tr.DroppedTotal() != 0 || tr.Seq() != 0 || tr.Level() != 0 {
		t.Fatal("nil tracker stats")
	}
}
