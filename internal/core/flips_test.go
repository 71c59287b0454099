package core

import (
	"testing"

	"anc/internal/graph"
)

// watchGraph: two triangles with a bridge; activations on the bridge make
// its endpoints join clusters.
func watchGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// bridgeNetwork is watchGraph under ANCO with µ = 2, its flip ring read
// once so it records from the start, after n activations of the bridge.
func bridgeNetwork(t *testing.T, n int) (*Network, *graph.Graph) {
	t.Helper()
	g := watchGraph(t)
	o := options(ANCO)
	o.Similarity.Mu = 2
	nw, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	nw.Flips(0)
	bridge := g.FindEdge(2, 3)
	for i := 1; i <= n; i++ {
		nw.Activate(bridge, float64(i)*0.02)
	}
	return nw, g
}

// flipsSince copies the flips after since out of the ring.
func flipsSince(nw *Network, since uint64) ([]Flip, uint64) {
	a, b, seq, _ := nw.Flips(since)
	return append(append([]Flip(nil), a...), b...), seq
}

// TestWatcherReportsFlips: driving the bridge weight down hard flips some
// vote near the bridge; the ring records each flip once, in order, at a
// valid level and at the network time of its write, and reading it drains
// nothing.
func TestWatcherReportsFlips(t *testing.T) {
	nw, g := bridgeNetwork(t, 400)
	flips, seq := flipsSince(nw, 0)
	if len(flips) == 0 || seq != uint64(len(flips)) {
		t.Fatalf("%d flips buffered, seq %d, after heavy bridge activity", len(flips), seq)
	}
	last := 0.0
	for _, f := range flips {
		u, v := g.Endpoints(f.Edge)
		if u != 2 && v != 2 && u != 3 && v != 3 {
			t.Fatalf("flip far from the bridge: %+v", f)
		}
		if f.Level < 1 || int(f.Level) > nw.Index().Levels() {
			t.Fatalf("bad level: %+v", f)
		}
		if f.Time < last || f.Time > nw.Clock().Now() {
			t.Fatalf("flip time %v outside [%v, %v]", f.Time, last, nw.Clock().Now())
		}
		last = f.Time
	}
	again, _ := flipsSince(nw, 0)
	if len(again) != len(flips) {
		t.Fatal("a read drained the ring")
	}
	if tail, _ := flipsSince(nw, seq-1); len(tail) != 1 || tail[0] != flips[len(flips)-1] {
		t.Fatalf("since=seq-1: %+v", tail)
	}
}

// TestWatchIdempotent: the first Flips call turns vote tracking on with
// one listener and one ring; later calls, and enabling the cache, reuse
// both — the ring records each flip once.
func TestWatchIdempotent(t *testing.T) {
	g := watchGraph(t)
	o := options(ANCO)
	o.Similarity.Mu = 2
	nw, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	nw.Flips(0)
	ring := nw.flips
	nw.Flips(0)
	nw.EnableClusterCache()
	if nw.flips != ring {
		t.Fatal("a second Flips call replaced the ring")
	}
	var seen uint64
	nw.Index().EnableVoteTracking().OnFlip(func(int, graph.EdgeID, bool) { seen++ })
	bridge := g.FindEdge(2, 3)
	for i := 1; i <= 400; i++ {
		nw.Activate(bridge, float64(i)*0.02)
	}
	if _, _, seq, _ := nw.Flips(0); seen == 0 || seq != seen {
		t.Fatalf("ring recorded %d flips, the vote tracker fired %d", seq, seen)
	}
}

// TestWatcherEventsConsistent: the last flip of every (edge, level) agrees
// with the edge's current vote count against the support threshold.
func TestWatcherEventsConsistent(t *testing.T) {
	nw, _ := bridgeNetwork(t, 500)
	flips, _ := flipsSince(nw, 0)
	last := map[[2]int]bool{} // (edge, level) -> pass
	for _, f := range flips {
		last[[2]int{int(f.Edge), int(f.Level)}] = f.Pass
	}
	if len(last) == 0 {
		t.Fatal("no flips to check")
	}
	min := nw.Index().MinSupport()
	for key, pass := range last {
		if votes := nw.Index().Votes(graph.EdgeID(key[0]), key[1]); (votes >= min) != pass {
			t.Fatalf("last flip of edge %d at level %d says pass=%v, votes %d against %d", key[0], key[1], pass, votes, min)
		}
	}
}
