package core

import (
	"math/rand"
	"testing"

	"anc/internal/graph"
)

// BenchmarkFlush times one ANCOR interval flush at the default
// ReinforceInterval (5 time units) after 64 uniform activations per time
// unit: 320 activations, about 300 distinct pending edges. The graph is the
// similarity benchmarks' (4,096 nodes: a random tree plus 16,384 random
// edges). The flush reinforces every pending edge — reading σ, so each
// trigger node's memo is refreshed once — and repairs the index with the
// new weights. The activations are not timed.
func BenchmarkFlush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gb := graph.NewBuilder(4096)
	for v := 1; v < 4096; v++ {
		gb.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v))
	}
	for i := 0; i < 16384; i++ {
		u, v := graph.NodeID(rng.Intn(4096)), graph.NodeID(rng.Intn(4096))
		if u != v {
			gb.AddEdge(u, v)
		}
	}
	g := gb.Build()
	o := DefaultOptions()
	o.Method = ANCOR
	nw, err := New(g, o)
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// The interval's first activation opens it with an empty flush.
		for j := 0; j < 320; j++ {
			if err := nw.Activate(graph.EdgeID(rng.Intn(g.M())), now+float64(j/64)); err != nil {
				b.Fatal(err)
			}
		}
		now += o.ReinforceInterval
		b.StartTimer()
		nw.Flush()
	}
}
