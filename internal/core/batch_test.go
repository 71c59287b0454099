package core

import (
	"math"
	"testing"

	"anc/internal/graph"
)

func TestActivateBatch(t *testing.T) {
	g := cliquePairGraph(t)
	for _, m := range []Method{ANCO, ANCOR, ANCF} {
		nw, err := New(g, options(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		batch := []Activation{
			{Edge: 0, T: 1}, {Edge: 1, T: 1}, {Edge: 2, T: 1.5},
			{Edge: g.FindEdge(5, 6), T: 2},
		}
		if err := nw.ActivateBatch(batch); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := nw.ActivateBatch([]Activation{{Edge: 0, T: 7}, {Edge: 0, T: 7}}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if nw.Stats.Activations != 6 {
			t.Fatalf("%v: activations = %d", m, nw.Stats.Activations)
		}
		if m == ANCOR && len(nw.pending) != 0 {
			t.Fatalf("ANCOR batch left pending reinforcement")
		}
		if m != ANCF {
			if msg := nw.Index().Validate(); msg != "" {
				t.Fatalf("%v: %s", m, msg)
			}
		}
	}
}

// TestActivateBatchRejectsBadInput: an invalid batch is rejected as a unit
// before any state is touched.
func TestActivateBatchRejectsBadInput(t *testing.T) {
	g := cliquePairGraph(t)
	nw, err := New(g, options(ANCO))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Activate(0, 3); err != nil {
		t.Fatal(err)
	}
	weightBefore := nw.Index().Weight(1)
	bad := [][]Activation{
		{{Edge: 1, T: 4}, {Edge: graph.EdgeID(g.M()), T: 4}}, // edge out of range
		{{Edge: -1, T: 4}},                 // negative edge
		{{Edge: 1, T: math.NaN()}},         // NaN time
		{{Edge: 1, T: math.Inf(1)}},        // Inf time
		{{Edge: 1, T: 5}, {Edge: 1, T: 4}}, // decreasing inside batch
		{{Edge: 1, T: 2}},                  // before current time
	}
	for i, b := range bad {
		if err := nw.ActivateBatch(b); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	//anclint:ignore floateq a rejected batch must leave state bit-identical
	if nw.Index().Weight(1) != weightBefore || nw.Stats.Activations != 1 || nw.Clock().Now() != 3 {
		t.Fatal("rejected batch mutated state")
	}
}

// TestActivateBatchEquivalentToLoop: batched ingest of a stream matches
// per-op ingest bit-for-bit on index weights, for every method.
func TestActivateBatchEquivalentToLoop(t *testing.T) {
	g := cliquePairGraph(t)
	for _, m := range []Method{ANCO, ANCOR, ANCF} {
		a, err := New(g, options(m))
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(g, options(m))
		if err != nil {
			t.Fatal(err)
		}
		stream := []Activation{
			{Edge: 3, T: 5}, {Edge: 7, T: 5}, {Edge: 3, T: 6},
			{Edge: g.FindEdge(5, 6), T: 12}, {Edge: 3, T: 12},
		}
		if err := a.ActivateBatch(stream); err != nil {
			t.Fatal(err)
		}
		for _, act := range stream {
			if err := b.Activate(act.Edge, act.T); err != nil {
				t.Fatal(err)
			}
		}
		// The per-op path has not seen the end-of-batch ANCOR flush yet;
		// align it the way a stream consumer would.
		if m == ANCOR {
			b.Flush()
		}
		exact := m == ANCO // reinforcement reads σ, whose refresh order differs
		for e := 0; e < g.M(); e++ {
			wa, wb := a.Index().Weight(graph.EdgeID(e)), b.Index().Weight(graph.EdgeID(e))
			//anclint:ignore floateq ANCO batched ingest is specified bit-identical to per-op
			if exact && wa != wb {
				t.Fatalf("%v: weights diverge at edge %d: %v vs %v", m, e, wa, wb)
			}
			if !exact && math.Abs(wa-wb) > 1e-9*(1+math.Abs(wb)) {
				t.Fatalf("%v: weights diverge at edge %d: %v vs %v", m, e, wa, wb)
			}
		}
	}
}
