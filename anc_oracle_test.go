package anc

import (
	"math"
	"testing"
)

func TestFacadeEstimateDistance(t *testing.T) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := net.EstimateDistance(3, 3); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	intra := net.EstimateDistance(0, 1)
	if math.IsInf(intra, 1) {
		t.Fatal("intra-clique pair estimated unreachable")
	}
	// The sketch may fail to co-locate nodes across the (very heavy)
	// bridge on such a tiny graph; when it does co-locate them, the
	// estimate must exceed the intra-clique one.
	if cross := net.EstimateDistance(0, 9); !math.IsInf(cross, 1) && intra >= cross {
		t.Fatalf("intra-clique distance %v not below cross-clique %v", intra, cross)
	}
	a := net.EstimateAttraction(0, 1)
	if math.Abs(a*intra-1) > 1e-12 {
		t.Fatalf("attraction %v != 1/dist", a)
	}
	// Activations shrink distances along the activated edge's direction.
	before := net.EstimateDistance(4, 5)
	for i := 1; i <= 40; i++ {
		if err := net.Activate(4, 5, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if after := net.EstimateDistance(4, 5); after >= before {
		t.Fatalf("bridge distance did not shrink: %v -> %v", before, after)
	}
}

func TestFacadeWatch(t *testing.T) {
	// Two triangles joined by a bridge — the topology where driving the
	// bridge weight down reliably flips votes at some level.
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}}
	cfg := testConfig()
	cfg.Mu = 2
	net, err := NewNetwork(6, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Watch(2)
	net.Watch(3)
	for i := 1; i <= 400; i++ {
		if err := net.Activate(2, 3, float64(i)*0.02); err != nil {
			t.Fatal(err)
		}
	}
	evs, _ := net.DrainEvents()
	if len(evs) == 0 {
		t.Fatal("no events after heavy bridge activity")
	}
	for _, e := range evs {
		if e.Node != 2 && e.Node != 3 {
			t.Fatalf("event for unwatched node: %+v", e)
		}
	}
	net.Unwatch(2)
	net.Unwatch(3)
	for i := 0; i < 100; i++ {
		net.Activate(0, 1, 8+float64(i)*0.01)
	}
	if evs, _ := net.DrainEvents(); len(evs) != 0 {
		t.Fatalf("events after Unwatch: %v", evs)
	}
}
