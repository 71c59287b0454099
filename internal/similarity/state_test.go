package similarity

import (
	"math"
	"testing"

	"anc/internal/decay"
	"anc/internal/graph"
)

func TestAccessors(t *testing.T) {
	g := twoTriangles(t)
	clock := decay.NewClock(0.1)
	cfg := DefaultConfig()
	st, err := New(g, clock, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Graph() != g || st.Clock() != clock {
		t.Fatal("accessors wrong")
	}
	if st.Activeness() == nil {
		t.Fatal("nil activeness")
	}
	if st.Config() != cfg {
		t.Fatal("config accessor wrong")
	}
	if s := (NodeType(9)).String(); s != "NodeType(9)" {
		t.Fatalf("unknown node type string = %q", s)
	}
}

// TestExportRestoreState: a store restored from exported state reads the
// same σ and node types, bit for bit, as the store it came from — even when
// its own memo was fresh before the restore.
func TestExportRestoreState(t *testing.T) {
	g := twoTriangles(t)
	clock := decay.NewClock(0.2)
	clock.SetRescaleEvery(0)
	st, err := New(g, clock, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		e := graph.EdgeID(i % g.M())
		st.ActivateNoReinforce(e, float64(i)*0.3)
		st.Reinforce(e)
	}
	clock.Rescale()
	s, act := st.ExportState()

	clock2 := decay.NewClock(0.2)
	st2, err := New(g, clock2, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		st2.NodeType(graph.NodeID(v)) // every memo fresh for the old state
	}
	st2.RestoreState(s, act)
	clock2.RestoreTime(clock.Now(), clock.Anchor())
	for e := 0; e < g.M(); e++ {
		if math.Abs(st.At(graph.EdgeID(e))-st2.At(graph.EdgeID(e))) > 1e-9 {
			t.Fatalf("S[%d] mismatch", e)
		}
		if a, b := st.Sigma(graph.EdgeID(e)), st2.Sigma(graph.EdgeID(e)); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("σ[%d] mismatch: %v vs %v", e, a, b)
		}
	}
	for v := 0; v < g.N(); v++ {
		if a, b := st.NodeType(graph.NodeID(v)), st2.NodeType(graph.NodeID(v)); a != b || st.cnt[v] != st2.cnt[v] {
			t.Fatalf("node %d: %v (cnt %d) vs %v (cnt %d)", v, a, st.cnt[v], b, st2.cnt[v])
		}
	}
	// Length mismatches panic.
	defer func() {
		if recover() == nil {
			t.Fatal("bad length accepted")
		}
	}()
	st2.RestoreState(s[:1], act)
}

// TestSMaxClamp: the upper clamp engages under runaway reinforcement.
func TestSMaxClamp(t *testing.T) {
	g := twoTriangles(t)
	cfg := Config{Epsilon: 0.1, Mu: 2, SMin: 1e-9, SMax: 5}
	st, err := New(g, decay.NewClock(0), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		for e := 0; e < g.M(); e++ {
			st.Reinforce(graph.EdgeID(e))
		}
	}
	for e := 0; e < g.M(); e++ {
		if st.Anchored(graph.EdgeID(e)) > 5+1e-9 {
			t.Fatalf("S[%d] = %v exceeds SMax", e, st.Anchored(graph.EdgeID(e)))
		}
	}
}
