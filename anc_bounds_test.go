package anc

import (
	"math"
	"testing"
)

// TestQueriesSafeOnBadNodeIDs is the regression test for the facade
// panics on out-of-range node IDs: every public query method must degrade
// gracefully (empty cluster, +Inf distance, zero attraction, no-op watch)
// for negative and ≥n IDs, exactly as FindEdge-backed methods already do.
func TestQueriesSafeOnBadNodeIDs(t *testing.T) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := []int{-1, -100, n, n + 1, 1 << 30}
	for _, v := range bad {
		if got := net.ClusterOf(v, net.SqrtLevel()); len(got) != 0 {
			t.Errorf("ClusterOf(%d) = %v, want empty", v, got)
		}
		if got := net.SmallestClusterOf(v); len(got) != 0 {
			t.Errorf("SmallestClusterOf(%d) = %v, want empty", v, got)
		}
		if d := net.EstimateDistance(v, 0); !math.IsInf(d, 1) {
			t.Errorf("EstimateDistance(%d, 0) = %v, want +Inf", v, d)
		}
		if d := net.EstimateDistance(0, v); !math.IsInf(d, 1) {
			t.Errorf("EstimateDistance(0, %d) = %v, want +Inf", v, d)
		}
		if a := net.EstimateAttraction(v, 0); a != 0 {
			t.Errorf("EstimateAttraction(%d, 0) = %v, want 0", v, a)
		}
		if _, err := net.Similarity(v, 0); err == nil {
			t.Errorf("Similarity(%d, 0) accepted", v)
		}
		if _, err := net.Activeness(v, 0); err == nil {
			t.Errorf("Activeness(%d, 0) accepted", v)
		}
		if evs, _, _ := net.Events(0, []int{v}); len(evs) != 0 { // must not panic
			t.Errorf("Events(0, [%d]) = %v, want none", v, evs)
		}
		view := net.View()
		if got := view.ClusterOf(v); len(got) != 0 {
			t.Errorf("View.ClusterOf(%d) = %v, want empty", v, got)
		}
	}
	// A bad ID in the node set matches nothing and leaves the valid ones
	// working: a real node beside it still gets its events.
	_, seq, _ := net.Events(0, nil)
	for i := 1; i <= 200; i++ {
		if err := net.Activate(0, 1, float64(i)*0.05); err != nil {
			t.Fatal(err)
		}
	}
	evs, _, _ := net.Events(seq, []int{-1, 0, 1, net.N(), math.MaxInt32})
	for _, e := range evs {
		if e.Node != 0 && e.Node != 1 {
			t.Fatalf("event for a node outside the valid set: %+v", e)
		}
	}
	// Valid IDs are unaffected by the guards.
	if got := net.ClusterOf(0, net.SqrtLevel()); len(got) == 0 {
		t.Fatal("ClusterOf(0) empty for a valid node")
	}
	if d := net.EstimateDistance(0, 0); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

// FuzzFacadeQueries: no combination of node IDs and level may panic any
// read-only facade query.
func FuzzFacadeQueries(f *testing.F) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		f.Fatal(err)
	}
	if err := net.Activate(4, 5, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(0, 1, 2)
	f.Add(-1, 10, -5)
	f.Add(1<<30, -(1 << 30), 0)
	f.Fuzz(func(t *testing.T, u, v, level int) {
		net.ClusterOf(u, level)
		net.SmallestClusterOf(u)
		net.EstimateDistance(u, v)
		net.EstimateAttraction(u, v)
		net.Clusters(level)
		net.EvenClusters(level)
		net.View().ClusterOf(u)
		if _, err := net.Similarity(u, v); err != nil && u >= 0 && u < net.N() && v >= 0 && v < net.N() && u != v {
			_ = err // missing edge between valid nodes is a legal error
		}
		net.Events(uint64(level), []int{u, v})
	})
}
