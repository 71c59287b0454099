package similarity

import (
	"math/rand"
	"testing"

	"anc/internal/decay"
	"anc/internal/graph"
)

func benchStore(b testing.TB, n, extra int) (*Store, *graph.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	gb := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		gb.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v))
	}
	for i := 0; i < extra; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			gb.AddEdge(u, v)
		}
	}
	g := gb.Build()
	st, err := New(g, decay.NewClock(0.1), 1, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return st, g
}

// BenchmarkActivate measures one activation followed by the local
// reinforcement of its edge, the per-activation worst case: the activation
// makes both trigger nodes' memos stale, so the reinforcement refreshes
// them.
func BenchmarkActivate(b *testing.B) {
	st, g := benchStore(b, 4096, 16384)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := graph.EdgeID(rng.Intn(g.M()))
		st.ActivateNoReinforce(e, float64(i)*1e-3)
		st.Reinforce(e)
	}
}

// BenchmarkActivateNoReinforce is the per-activation similarity cost of
// every method: the activeness bump and S's unit impact.
func BenchmarkActivateNoReinforce(b *testing.B) {
	st, g := benchStore(b, 4096, 16384)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ActivateNoReinforce(graph.EdgeID(rng.Intn(g.M())), float64(i)*1e-3)
	}
}

// BenchmarkReinforce isolates the local reinforcement arithmetic: no
// activation intervenes, so every memo it reads is fresh after warm-up.
func BenchmarkReinforce(b *testing.B) {
	st, g := benchStore(b, 4096, 16384)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reinforce(graph.EdgeID(rng.Intn(g.M())))
	}
}

// BenchmarkRefreshNodeSigma is one node's memo refresh: σ on each incident
// edge and the active-neighbor count, Σ_{y∈N(x)} (deg x + deg y).
func BenchmarkRefreshNodeSigma(b *testing.B) {
	st, g := benchStore(b, 4096, 16384)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RefreshNodeSigma(graph.NodeID(rng.Intn(g.N())))
	}
}
