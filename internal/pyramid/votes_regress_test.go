package pyramid

import (
	"math/rand"
	"testing"

	"anc/internal/graph"
)

// TestVoteTrackerK256Boundary is the regression test for the uint8 vote
// counts: with K = 256 identical single-seed pyramids over a connected
// graph, every edge collects exactly 256 votes. The old []uint8 counts
// wrapped to 0 and min := uint8(MinSupport()) truncated 256 to 0, so the
// tracker both corrupted counts and never reported the threshold crossing
// at min = 256.
func TestVoteTrackerK256Boundary(t *testing.T) {
	// Path 0-1-2-3, unit weights.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()

	const K = 256
	cfg := Config{K: K, Theta: 1.0} // MinSupport = 256 > math.MaxUint8
	levels := Levels(g.N())
	// Pyramids 0..K-2 use the single seed {0} at every level: all nodes
	// attach to it, so every edge is same-seed there no matter the
	// weights. The last pyramid seeds {0, 3}, so the middle edge (1,2)
	// straddles the Voronoi boundary and can be flipped by a weight
	// change.
	seedSets := make([][]graph.NodeID, K*levels)
	for p := 0; p < K; p++ {
		for l := 0; l < levels; l++ {
			if p == K-1 {
				seedSets[p*levels+l] = []graph.NodeID{0, 3}
			} else {
				seedSets[p*levels+l] = []graph.NodeID{0}
			}
		}
	}
	ix, err := BuildWithSeeds(g, func(graph.EdgeID) float64 { return 1 }, cfg, seedSets)
	if err != nil {
		t.Fatal(err)
	}
	vt := ix.EnableVoteTracking()
	if msg := ix.Validate(); msg != "" {
		t.Fatalf("fresh tracker invalid at K=256: %s", msg)
	}
	e01 := g.FindEdge(0, 1)
	if got := vt.Votes(e01, 1); got != K {
		t.Fatalf("edge (0,1) votes = %d, want %d (uint8 wraparound?)", got, K)
	}

	// Initially node 2 sits closer to seed 3 (dist 1 vs 2), so edge (1,2)
	// is split in the last pyramid: 255 votes < min 256.
	e12 := g.FindEdge(1, 2)
	if got, want := vt.Votes(e12, 1), K-1; got != want {
		t.Fatalf("edge (1,2) votes = %d, want %d", got, want)
	}
	var flips []struct {
		l    int
		e    graph.EdgeID
		pass bool
	}
	vt.OnFlip(func(l int, e graph.EdgeID, pass bool) {
		flips = append(flips, struct {
			l    int
			e    graph.EdgeID
			pass bool
		}{l, e, pass})
	})

	// Weighting edge (2,3) up to 10 moves node 2 into seed 0's cell
	// (dist 2 via the path vs 10 direct), so (1,2) becomes same-seed in
	// the last pyramid too: votes go 255 -> 256, crossing min = 256. The
	// truncated uint8 threshold could never report this flip.
	e23 := g.FindEdge(2, 3)
	ix.UpdateEdge(e23, 10)
	if msg := ix.Validate(); msg != "" {
		t.Fatalf("tracker invalid after update: %s", msg)
	}
	if got := vt.Votes(e12, 1); got != K {
		t.Fatalf("edge (1,2) votes after update = %d, want %d", got, K)
	}
	var sawPass bool
	for _, f := range flips {
		if f.e == e12 {
			if !f.pass {
				t.Fatalf("spurious fail flip on (1,2): %+v", f)
			}
			sawPass = true
		}
	}
	if !sawPass {
		t.Fatal("no pass flip reported for edge (1,2) crossing min support 256")
	}
}

// TestConfigRejectsOversizedK: the vote-tracking bound is enforced at
// construction, so a tracker can never be attached to an ensemble its
// uint16 counts cannot represent.
func TestConfigRejectsOversizedK(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 8, 4)
	wf := func(e graph.EdgeID) float64 { return 1 }
	if _, err := Build(g, wf, Config{K: 65536, Theta: 0.7}, rand.New(rand.NewSource(2))); err == nil {
		t.Fatal("K=65536 accepted; uint16 vote counts would overflow")
	}
	if _, err := Build(g, wf, Config{K: 65535, Theta: 0.7}, rand.New(rand.NewSource(2))); err != nil {
		t.Fatalf("K=65535 rejected: %v", err)
	}
}

// flipRecord is one observed threshold crossing.
type flipRecord struct {
	l    int
	e    graph.EdgeID
	pass bool
}

// TestFlipsCoalescedPerCycle drives a multi-pyramid churn workload and
// asserts the flip contract of the coalesced OnFlip: within one update
// cycle a (level, edge) pair emits at most one event, every event reflects
// a net pass-state change relative to the cycle start, and the emitted
// state matches the settled votes — no pass→fail→pass storms from
// transient crossings while the cycle's pyramids are applied one by one.
func TestFlipsCoalescedPerCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 64, 128)
	w := randomWeights(rng, g.M())
	// K = 5, θ = 0.5 puts min support at 3 of 5, so single-pyramid
	// membership changes move edges across the threshold often.
	ix := buildIndex(t, g, w, Config{K: 5, Theta: 0.5}, 11)
	vt := ix.EnableVoteTracking()
	min := ix.MinSupport()

	var cycle []flipRecord
	vt.OnFlip(func(l int, e graph.EdgeID, pass bool) {
		cycle = append(cycle, flipRecord{l, e, pass})
	})

	pass := func(e graph.EdgeID, l int) bool { return vt.Votes(e, l) >= min }
	// before[l-1][e] is the pass state at the start of the cycle.
	before := make([][]bool, ix.Levels())
	for l := range before {
		before[l] = make([]bool, g.M())
	}
	snapshot := func() {
		for l := 1; l <= ix.Levels(); l++ {
			for e := 0; e < g.M(); e++ {
				before[l-1][e] = pass(graph.EdgeID(e), l)
			}
		}
	}
	snapshot()

	edges := make([]graph.EdgeID, 0, 8)
	weights := make([]float64, 0, 8)
	for step := 0; step < 300; step++ {
		edges = edges[:0]
		weights = weights[:0]
		for i := 0; i < 1+rng.Intn(7); i++ {
			e := graph.EdgeID(rng.Intn(g.M()))
			dup := false
			for _, seen := range edges {
				if seen == e {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			w[e] *= 0.2 + rng.Float64()*4
			edges = append(edges, e)
			weights = append(weights, w[e])
		}
		cycle = cycle[:0]
		ix.UpdateEdges(edges, weights)

		type flipKey struct {
			l int
			e graph.EdgeID
		}
		seen := map[flipKey]bool{}
		for _, f := range cycle {
			key := flipKey{l: f.l, e: f.e}
			if seen[key] {
				t.Fatalf("step %d: flip storm — (level %d, edge %d) emitted twice in one cycle", step, f.l, f.e)
			}
			seen[key] = true
			if f.pass == before[f.l-1][f.e] {
				t.Fatalf("step %d: spurious flip — (level %d, edge %d) emitted pass=%v but started the cycle there", step, f.l, f.e, f.pass)
			}
			if f.pass != pass(f.e, f.l) {
				t.Fatalf("step %d: stale flip — (level %d, edge %d) emitted pass=%v, settled state is %v", step, f.l, f.e, f.pass, pass(f.e, f.l))
			}
		}
		// Conversely: every net change must have been reported.
		for l := 1; l <= ix.Levels(); l++ {
			for e := 0; e < g.M(); e++ {
				now := pass(graph.EdgeID(e), l)
				if now != before[l-1][e] && !seen[flipKey{l: l, e: graph.EdgeID(e)}] {
					t.Fatalf("step %d: missed flip — (level %d, edge %d) changed %v -> %v with no event", step, l, e, before[l-1][e], now)
				}
			}
		}
		snapshot()
	}
	if msg := ix.Validate(); msg != "" {
		t.Fatal(msg)
	}
}
